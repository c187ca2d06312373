"""Multi-queue IO front end with buffered write and read paths.

Requests are dispatched to per-queue FIFO deques, each drained by one worker
actor, so many flash operations are in flight although each worker issues its
device ops synchronously. Writes land in page-sized cache buffers (empty /
partially dirty / fully dirty); evicting a non-empty buffer swaps its contents
into a detached page which is merged with flash if partial, programmed to the
next page of some bank's current-writing block, and only then mapped.

Concurrency: workers, collectors and the flush daemon are actors on one
cooperative scheduler, and an actor runs alone between its yields, so no step
takes a lock. Buffer contents and the buffer lookup table change only inside
a step, and whatever was read before a yield is checked again after it. Page
allocation and its device submit run in the same step, so a block's pages are
programmed strictly in order. A write miss finds its buffer, evicts it and
installs its LPN in one step, so two writers of one LPN never race for a
buffer; exclusion that must outlast a virtual wait is explicit per-bank
state (`gc_active`, `exclusive_gc`, `writers_active`). Whether a write
collects inline first is the GC controller's decision (`GcController.inline`).

A caller that submits one-sector writes to one page and waits on each
before the next may hand the whole run to `write_run`. A sector is served in
the caller's own step when the scheduler would run its queued handoff
(worker wakes, charges its CPU cost, is resumed in place, fires the request)
with no other actor in between: the worker is parked, the LPN is buffered,
no actor is ready, the event being pumped has not fired, and the charge's
end is strictly before the next heap entry (`Scheduler.in_place_until`).
Within one LPN and one step only that end moves from sector to sector, so
the run books each sector's core through `CorePool.charge` bounded by the
heap entry (`before=`), moves the clock to its end, and stops at the first
sector whose charge that bound refuses; the slot's
bytes, dirty bits and stamp then change once. Virtual time, counters and
heap order are those of the handoffs. The run then queues the sector it
stopped at, as `submit` would, and returns that request for the caller to
wait on.

Device backpressure is inherent in the device's one, synchronous request
path (queue occupancy is charged as wait time), so no retry/backoff loop is
needed here.
"""

from collections import deque
from dataclasses import dataclass, replace

from . import oob
from .errors import (AddressError, ConfigurationError, EngineStateError,
                     ExhaustionError)
from .ftl_state import UNMAPPED
from .sched import Event
from .sim_flash import parse_key_values


@dataclass
class EngineParams:
    num_queues: int = 64
    num_buffers: int = 256        # page-sized cache buffers
    idle_flush_seconds: float = 60.0
    cpu_us: int = 10              # per-request worker cost (copy + lookup)
    daemon_tick_us: int = 1_000_000
    gc_wait_us: int = 500         # writer poll interval when space is exhausted
    exhaust_timeout_us: int = 30_000_000
    gc_reserve_blocks: int = 1    # per-bank blocks only GC copies may consume

    @classmethod
    def from_text(cls, text):
        params = cls()
        for key, value in parse_key_values(text.splitlines()).items():
            if not hasattr(params, key):
                raise ConfigurationError(f"unknown engine config key {key!r}")
            convert = float if isinstance(getattr(params, key), float) else int
            try:
                setattr(params, key, convert(value))
            except ValueError:
                raise ConfigurationError(f"engine config key {key!r}: {value!r} "
                                         f"is not a valid {convert.__name__}") from None
        return params


class IoRequest(Event):
    """A request is its own completion event: the worker fires it, and
    `done` names it for callers that wait. It fires with no value, so a
    completed request holds no reference to itself and is freed as soon as
    its last holder drops it. A request is submitted once."""

    __slots__ = ("kind", "lsn", "data", "result", "error")

    def __init__(self, kind, lsn, data=b""):
        Event.__init__(self, None)        # bound to a scheduler by submit
        self.kind = kind
        self.lsn = lsn
        self.data = data
        self.result = None
        self.error = None

    @property
    def done(self):
        return self


class BufferSlot:
    __slots__ = ("index", "lpn", "data", "dirty", "last_access")

    def __init__(self, index, size):
        self.index = index
        self.lpn = None
        self.data = bytearray(size)
        self.dirty = 0
        self.last_access = 0


class IoEngine:
    """The IO front end. Workers charge their per-request CPU cost on
    `cores`, the engine's `CorePool`; `gc`, the `GcController` whose
    `inline` decides whether a writer collects first, is set once both
    layers exist."""

    def __init__(self, sched, device, state, params, cores):
        self.sched = sched
        self.device = device
        self.state = state
        self.cores = cores
        g = device.geometry
        # the engine's own copy: the caller's params may serve another engine
        self.params = replace(params)
        if g.sectors_per_page < 2:
            raise ConfigurationError("engine needs at least 2 sectors per page")
        self.spp = g.sectors_per_page
        self.sector_size = g.read_unit
        self.full_mask = (1 << self.spp) - 1
        self.num_sectors = state.num_lpns * self.spp
        self.slots = [BufferSlot(i, g.page_size)
                      for i in range(self.params.num_buffers)]
        self.empty_q = deque(range(self.params.num_buffers))
        self.full_q = deque()
        # the partial slots in LRU order, as of a clock (_lru_partial)
        self._lru, self._lru_pos, self._lru_at = [], 0, 0
        self.queues = [deque() for _ in range(self.params.num_queues)]
        self._wake = [None] * self.params.num_queues
        self._bank_cursor = 0
        self.gc = None
        self.running = False
        self.last_work_us = [-10**15] * self.params.num_queues
        self._busy = [False] * self.params.num_queues
        self.counters = {
            "user_sectors_written": 0,
            "user_sectors_read": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "read_hits": 0,
            "read_misses": 0,
            "merges": 0,
            "evictions": 0,
            "daemon_flushes": 0,
            "user_pages_flushed": 0,
            "space_waits": 0,
        }
        self.error_log = []

    # ---- dispatch ---------------------------------------------------------

    def _dispatch(self, lsn):
        """A sector's queue, by LPN: writes of one LPN stay in submission
        order on one worker."""
        return (lsn // self.spp) % self.params.num_queues

    def recent_active(self, window_us, now_us):
        """Workers mid-request or that finished one within the window; this
        is the 'awake kthreads' signal the adaptive collector throttles on."""
        floor = now_us - window_us
        return sum(1 for qi, t in enumerate(self.last_work_us)
                   if self._busy[qi] or t >= floor)

    def _check(self, lsn):
        if not self.running:
            raise EngineStateError("engine is not serving")
        if not (0 <= lsn < self.num_sectors):
            raise AddressError(f"sector {lsn} outside exported capacity")

    def submit(self, req):
        self._check(req.lsn)
        return self._enqueue(req, self._dispatch(req.lsn))

    def _enqueue(self, req, qi):
        req._sched = self.sched
        self.queues[qi].append(req)
        wake = self._wake[qi]
        if wake is not None:
            self._wake[qi] = None
            wake.fire()
        return req

    def write_run(self, lsn, data):
        """Write `data` (whole sectors, back to back) to the sectors of one
        page from `lsn` on, for a caller that would submit each as a
        one-sector write and wait on it before the next. The run is served
        in the caller's own step up to the first sector whose queued
        handoff would not run with no other actor in between (see the
        module docstring); that sector is queued and its request returned.
        Returns None when the whole run was served. A payload that is not
        whole sectors serves none and is queued whole."""
        self._check(lsn)
        size = self.sector_size
        n, rest = divmod(len(data), size)
        lpn, off = divmod(lsn, self.spp)
        if off + n > self.spp:
            raise AddressError(f"sectors {lsn}..{lsn + n - 1} cross a page end")
        qi = self._dispatch(lsn)
        if rest:
            return self._enqueue(IoRequest("write", lsn, data), qi)
        # the worker is parked, no actor is ready and the LPN is buffered;
        # none of this changes between sectors, only the clock does
        sched = self.sched
        until = None if self._wake[qi] is None else sched.in_place_until()
        slot_idx = None if until is None else self.state.buf_find(lpn)
        now = sched.now
        cpu_us = self.params.cpu_us
        charge = self.cores.charge
        served = 0
        while served < n and slot_idx is not None:
            # nothing may be due by the end of the sector's charge
            delay = charge(cpu_us, before=until)
            if delay is None:
                break
            now = sched.now = now + delay
            served += 1
        if served:
            self.last_work_us[qi] = now
            self._write_hit(self.slots[slot_idx], off, data[:served * size])
        if served < n:
            return self._enqueue(IoRequest(
                "write", lsn + served, data[served * size:(served + 1) * size]),
                qi)
        return None

    # ---- workers ------------------------------------------------------------

    def worker_loop(self, qi):
        queue = self.queues[qi]
        wake = self.sched.event()
        while True:
            if not queue:
                if not self.running:
                    return
                wake.fired = False            # re-arm; submit or stop fires it
                self._wake[qi] = wake
                yield wake
                continue
            req = queue.popleft()
            self._busy[qi] = True
            yield self.cores.charge(self.params.cpu_us)
            self.last_work_us[qi] = self.sched.now
            try:
                if req.kind == "write":
                    yield from self._write_sector(req.lsn, req.data)
                    req.result = True
                elif req.kind == "read":
                    req.result = yield from self._read_sector(req.lsn)
                elif req.kind == "flush":
                    yield from self.flush_all()
                    req.result = True
                else:
                    raise AddressError(f"unknown request kind {req.kind!r}")
            except Exception as exc:      # surfaced on the request handle
                req.error = exc
                self.error_log.append((self.sched.now, req.kind, req.lsn, repr(exc)))
            self.last_work_us[qi] = self.sched.now
            self._busy[qi] = False
            req.fire()

    # ---- write path -----------------------------------------------------------

    def _write_hit(self, slot, off, data):
        self._write_into_slot(slot, off, data)
        n = len(data) // self.sector_size
        self.counters["cache_hits"] += n
        self.counters["user_sectors_written"] += n

    def _write_into_slot(self, slot, off, data):
        """Writes whole sectors `data` from sector `off` of `slot` on."""
        base = off * self.sector_size
        slot.data[base:base + len(data)] = data
        was_full = slot.dirty == self.full_mask
        slot.dirty |= ((1 << len(data) // self.sector_size) - 1) << off
        slot.last_access = self.sched.now
        if slot.dirty == self.full_mask and not was_full:
            self.full_q.append(slot.index)

    def _write_sector(self, lsn, data):
        if len(data) != self.sector_size:
            raise AddressError("write payload must be one sector")
        lpn, off = divmod(lsn, self.spp)
        state = self.state
        slot_idx = state.buf_find(lpn)
        if slot_idx is not None:
            self._write_hit(self.slots[slot_idx], off, data)
            return
        while True:
            slot, origin = self._select_buffer()
            if self._selection_valid(slot, origin):
                break
        detached = None
        if slot.lpn is not None:
            # swap contents into a detached page and flush below
            detached = (slot.lpn, slot.data, slot.dirty)
            slot.data = bytearray(len(slot.data))
            self.counters["evictions"] += 1
        state.buf_set(slot.index, lpn)
        slot.lpn = lpn
        slot.dirty = 0
        self._write_into_slot(slot, off, data)
        self.counters["cache_misses"] += 1
        self.counters["user_sectors_written"] += 1
        if detached is not None:
            yield from self._flush_page(*detached)

    def _selection_valid(self, slot, origin):
        if origin == "empty":
            return slot.lpn is None
        if origin == "full":
            return slot.lpn is not None and slot.dirty == self.full_mask
        return slot.lpn is not None and slot.dirty != self.full_mask

    def _select_buffer(self):
        """Preference order empty > full > LRU partial (stale queue entries
        are re-validated by the caller). Some slot always qualifies: every
        empty slot has an `empty_q` entry, every full slot a `full_q` entry,
        and every other slot is a partial candidate."""
        if self.empty_q:
            return self.slots[self.empty_q.popleft()], "empty"
        if self.full_q:
            return self.slots[self.full_q.popleft()], "full"
        return self._lru_partial(), "partial"

    def _lru_partial(self):
        """The partial slot least in `(last_access, index)`, or None.

        `_lru` is the sorted `(last_access, index)` of every slot that was
        partial at clock `_lru_at`; `_lru_pos` skips its consumed head. An
        entry still holds while its slot is partial with that stamp. Any
        other partial slot was stamped (with the clock, which never falls)
        after the snapshot, so no earlier than `_lru_at`: the first holding
        entry stamped before `_lru_at` is the pick. Without one, the
        snapshot is rebuilt and its first entry is the pick. It holds at
        most `num_buffers` entries, and buffer writes do no bookkeeping."""
        slots, full = self.slots, self.full_mask
        order = self._lru
        pos = self._lru_pos
        while pos < len(order):
            stamp, idx = order[pos]
            slot = slots[idx]
            if (slot.last_access == stamp and slot.lpn is not None
                    and slot.dirty != full):
                if stamp < self._lru_at:
                    self._lru_pos = pos
                    return slot
                break
            pos += 1
        self._lru = order = sorted(
            (slot.last_access, slot.index) for slot in slots
            if slot.lpn is not None and slot.dirty != full)
        self._lru_at = self.sched.now
        self._lru_pos = 0
        return slots[order[0][1]] if order else None

    # ---- flush / merge ----------------------------------------------------------

    def _read_mapped_page(self, lpn, offset=0, length=None):
        """Read the flash copy of lpn, re-validating the map after the read:
        GC may move the page (and later erase the old block) between lookup
        and read, so a changed entry means the bytes must be fetched again."""
        for _ in range(16):
            ppn = self.state.map_lookup(lpn)
            if ppn == UNMAPPED:
                return None
            addr = self.device.geometry.split_ppn(ppn)
            data, _, wait = self.device.read_page(
                addr, offset, length, submit_us=self.sched.now)
            yield wait
            if self.state.map_lookup(lpn) == ppn:
                return data
        raise ExhaustionError(f"lpn {lpn} kept moving during read")

    def _program_lpn_page(self, lpn, buf, dirty_mask):
        """Merge-if-partial and program; mapping is the caller's step."""
        if dirty_mask != self.full_mask:
            flash = yield from self._read_mapped_page(lpn)
            self.counters["merges"] += 1
            for s in range(self.spp):
                if dirty_mask & (1 << s):
                    continue
                base = s * self.sector_size
                if flash is None:
                    buf[base:base + self.sector_size] = b"\x00" * self.sector_size
                else:
                    buf[base:base + self.sector_size] = flash[base:base + self.sector_size]
        page = bytes(buf)
        seq = self.state.next_sequence()
        spare = oob.encode_spare(oob.TYPE_DATA, lpn, seq, page)
        ppn = yield from self._program_page(page, spare)
        return ppn

    def _map_flushed(self, lpn, ppn):
        old = self.state.map_update_locked(lpn, ppn)
        self.state.mark_valid(ppn)
        if old != UNMAPPED:
            self.state.mark_invalid(old)
        self.counters["user_pages_flushed"] += 1

    def _flush_page(self, lpn, buf, dirty_mask):
        ppn = yield from self._program_lpn_page(lpn, buf, dirty_mask)
        self._map_flushed(lpn, ppn)

    def pick_bank(self, exclude=()):
        """Rotate over banks with room, skipping GC-flagged ones when any
        alternative exists; with every candidate flagged, pick at random."""
        n = self.device.geometry.num_banks
        banks = self.state.banks
        has_room, reserve = self.state.has_room, self.params.gc_reserve_blocks
        flagged = []
        for i in range(n):
            bank = (self._bank_cursor + i) % n
            if bank in exclude or not has_room(bank, reserve):
                continue
            info = banks[bank]
            if info.gc_active or info.exclusive_gc:
                flagged.append(bank)
                continue
            self._bank_cursor = (bank + 1) % n
            return bank
        if not flagged:
            return None
        bank = self.sched.rng.choice(flagged)
        self._bank_cursor = (bank + 1) % n
        return bank

    def _pick_bank_gc(self, exclude=()):
        """Bank choice plus the inline-collection hook: when the GC
        controller collects inline, a breached bank is collected before the
        write proceeds."""
        deadline = self.sched.now + self.params.exhaust_timeout_us
        gc = self.gc
        while True:
            bank = self.pick_bank(exclude)
            inline = gc.inline
            if bank is not None:
                if inline and gc.current_level(bank) is not None:
                    yield from gc.npgc_before_write(bank)
                return bank
            # nothing has room: inline GC collects in place, collectors are
            # waited on
            if inline:
                for b in range(self.device.geometry.num_banks):
                    yield from gc.npgc_before_write(b)
                if any(self.state.has_room(b, self.params.gc_reserve_blocks)
                       for b in range(self.device.geometry.num_banks)):
                    continue
                raise ExhaustionError("no free block in any bank after inline GC")
            if self.sched.now >= deadline:
                raise ExhaustionError("no free block appeared before timeout")
            self.counters["space_waits"] += 1
            yield self.params.gc_wait_us

    def _program_page(self, data, spare, exclude=()):
        g = self.device.geometry
        while True:
            bank = yield from self._pick_bank_gc(exclude)
            info = self.state.banks[bank]
            # allocate and program in one step: a block's pages reach the
            # device strictly in order
            ppn = self.state.alloc_page_in_bank(
                bank, self.params.gc_reserve_blocks)
            if ppn is None:
                yield 1                          # racer drained the bank
                continue
            info.writers_active += 1
            yield self.device.write_page(
                g.split_ppn(ppn), data, spare, submit_us=self.sched.now)
            info.writers_active -= 1
            return ppn

    # ---- read path -----------------------------------------------------------

    def _read_sector(self, lsn):
        lpn, off = divmod(lsn, self.spp)
        self.counters["user_sectors_read"] += 1
        slot_idx = self.state.buf_find(lpn)
        if slot_idx is not None:
            slot = self.slots[slot_idx]
            if slot.dirty & (1 << off):
                base = off * self.sector_size
                slot.last_access = self.sched.now
                self.counters["read_hits"] += 1
                return bytes(slot.data[base:base + self.sector_size])
        self.counters["read_misses"] += 1
        data = yield from self._read_mapped_page(
            lpn, off * self.sector_size, self.sector_size)
        if data is None:
            return b"\x00" * self.sector_size   # never-written sector
        return data

    # ---- daemon / barriers ---------------------------------------------------

    def _flush_slot_copy(self, slot):
        """Flush a snapshot; the map advances and the slot empties only if
        the slot did not change while the snapshot was being programmed.
        A changed slot means newer acknowledged sectors exist: the stale
        programmed page is simply never mapped (GC reclaims it) and the
        newer contents flush on a later pass."""
        lpn, dirty, stamp = slot.lpn, slot.dirty, slot.last_access
        if lpn is None or dirty == 0:
            return False
        snapshot = bytearray(slot.data)
        ppn = yield from self._program_lpn_page(lpn, snapshot, dirty)
        if (slot.lpn, slot.dirty, slot.last_access) != (lpn, dirty, stamp):
            return False
        self._map_flushed(lpn, ppn)
        self.state.buf_set(slot.index, None)
        slot.lpn = None
        slot.dirty = 0
        self.empty_q.append(slot.index)
        return True

    def flush_daemon_tick(self, now_us):
        """One sweep: flush every buffer idle past the threshold."""
        idle_us = int(self.params.idle_flush_seconds * 1_000_000)
        flushed = 0
        for slot in self.slots:
            if slot.lpn is None or slot.dirty == 0:
                continue
            if now_us - slot.last_access < idle_us:
                continue
            try:
                did = yield from self._flush_slot_copy(slot)
            except ExhaustionError as exc:
                self.error_log.append((self.sched.now, "daemon", slot.index, repr(exc)))
                continue                         # retried next tick
            if did:
                flushed += 1
                self.counters["daemon_flushes"] += 1
        return flushed

    def flush_daemon_loop(self):
        while self.running:
            yield self.params.daemon_tick_us
            if not self.running:
                return
            yield from self.flush_daemon_tick(self.sched.now)

    def flush_all(self):
        """Barrier: every write acknowledged before the call is durable after."""
        failed = []
        for slot in self.slots:
            try:
                yield from self._flush_slot_copy(slot)
            except ExhaustionError:
                failed.append(slot.lpn)
        if failed:
            raise ExhaustionError(f"unflushed lpns after barrier: {failed}")

    # ---- lifecycle -------------------------------------------------------------

    def start_workers(self):
        self.running = True
        return [self.sched.spawn(self.worker_loop(qi), f"io-worker-{qi}")
                for qi in range(self.params.num_queues)]

    def stop(self):
        self.running = False
        for qi, wake in enumerate(self._wake):
            if wake is not None:
                self._wake[qi] = None
                wake.fire()
