"""Greedy bank-local garbage collection.

Victims are occupied blocks whose valid-page count sits at or below the
threshold of the bank's escalation level; level 0 reclaims only fully-invalid
blocks (erase, no copies), higher levels allow progressively more copying.
Valid pages are always copied to another block inside the same bank.

A bank's level is a lookup by its free-block count in a table built once from
the levels. The victim is read from `FtlState`'s victim index (per bank and
valid count, a bitmask of occupied blocks, kept in step by the table
methods), so a collector polling an idle bank pays a few integer operations,
not a scan of the bank's blocks.

`move_live_pages` is the one live-page move: GC, the checkpoint's head
relocation and the post-restore free-pool repair all use it and differ only
in where the copies go. A copy keeps its source's sequence number (it is the
same logical version) and is remapped with a compare-and-swap, so a racing
user rewrite wins and the stale copy is simply left invalid.

One collection step (`_collect_step`: level, scan charge, victim, collect)
runs under three invocation policies, and this module is the only one that
knows which is in force. NPGC runs the step inline in the write path when
the chosen bank is short on free blocks; PLLGC runs co-running collector
actors that claim idle banks; under the adaptive variant collector 0 is also
the master: before each round it throttles how many collectors are awake by
how many IO workers are busy, and bars writers from the single most-starved
bank (exclusiveGC). Once the collectors are stopped, writers collect inline
under every policy, so the final flush of a clean shutdown can still reclaim.
"""

from dataclasses import dataclass

from . import oob

# free blocks past the panic threshold a bank must regain before the
# adaptive master clears its exclusiveGC flag
PANIC_HYSTERESIS = 2


def move_live_pages(sched, device, state, bank, block, alloc, cores=None,
                    copy_cpu_us=0, on_remap=None):
    """Copy a block's live pages to the pages `alloc()` hands out.

    Walks the written prefix and reads each valid page with its spare; torn
    pages hold nothing to preserve and are skipped. `alloc()` and the copy's
    program submit run in one scheduler step, so copies hit their target
    block strictly in order. Once the program completes (and, with
    `cores`, the host has been charged `copy_cpu_us`), the copy is remapped
    by compare-and-swap: a user rewrite that landed meanwhile wins, and the
    copy stays invalid. `on_remap(won)` sees each swap's outcome. Returns
    False as soon as `alloc()` finds no room, True when every page moved."""
    g = device.geometry
    gblock = bank * g.blocks_per_bank + block
    for page in range(device.written_prefix(bank, block)):
        if not state.valid_bits[gblock, page]:
            continue
        old_ppn = g.ppn(bank, block, page)
        data, spare, wait = device.read_page(
            g.split_ppn(old_ppn), want_spare=True, submit_us=sched.now)
        yield wait
        meta = oob.decode_spare(spare, data)
        if meta is None:
            continue
        lpn = meta[1]
        new_ppn = alloc()
        if new_ppn is None:
            return False
        # a fresh stamp would let a copy that loses its swap outrank newer
        # user data during recovery; only data pages are marked valid, and a
        # data page's spare, its CRC just checked against `data`, is already
        # the copy's
        yield device.write_page(g.split_ppn(new_ppn), data,
                                spare[:oob.SPARE_BYTES], submit_us=sched.now)
        if cores:
            yield cores.charge(copy_cpu_us)
        won = state.map_update_if(lpn, old_ppn, new_ppn)
        if won:
            state.mark_valid(new_ppn)
            state.mark_invalid(old_ppn)
        if on_remap:
            on_remap(won)
    return True


@dataclass(frozen=True)
class GcLevel:
    free_threshold: int    # level active when bank free blocks <= this
    valid_threshold: int   # victims must have <= this many valid pages


def default_levels(geometry):
    bpb, ppb = geometry.blocks_per_bank, geometry.pages_per_block
    return [
        GcLevel(max(1, bpb // 4), 0),
        GcLevel(max(1, bpb // 8), ppb // 4),
        GcLevel(max(1, bpb // 16), ppb // 2),
    ]


def default_adaptive_map(num_io_workers, max_gc_threads):
    """Quartile bands of active IO workers -> permitted GC threads: an idle
    system runs every collector, full IO load allows only the master."""
    q = max(1, num_io_workers // 4)
    bands = []
    for k in range(4):
        lo = k * q + (1 if k else 0)
        hi = (k + 1) * q if k < 3 else max(num_io_workers, 4 * q)
        bands.append((lo, hi, max(1, max_gc_threads >> k)))
    return bands


@dataclass
class GcStats:
    blocks_collected: int = 0
    valid_pages_copied: int = 0
    wasted_copies: int = 0
    erases_performed: int = 0
    busy_us: int = 0
    rounds: int = 0

    def snapshot(self):
        return GcStats(**self.__dict__)

    def delta(self, before):
        return GcStats(**{k: getattr(self, k) - getattr(before, k)
                          for k in self.__dict__})


@dataclass
class GcPolicy:
    kind: str = "PLLGC"            # NPGC | PLLGC | PLLGC_ADAPTIVE
    max_gc_threads: int = 1
    idle_poll_us: int = 500
    master_tick_us: int = 200
    activity_window_us: int = 1000
    copy_cpu_us: int = 20          # host CPU per page copied (driver path)
    round_cpu_us: int = 5          # host CPU per erase issue / bookkeeping
    scan_cpu_us: int = 40          # host CPU per victim scan of one bank


class GcController:
    """Runs the collection step under `policy`, charging its host CPU on
    `cores`, the engine's `CorePool`. `levels` defaults to `default_levels`
    of the card; the adaptive band table is `default_adaptive_map` over
    `io_workers` IO workers."""

    def __init__(self, sched, device, state, policy, cores, levels=None,
                 io_workers=1):
        self.sched = sched
        self.device = device
        self.state = state
        self.policy = policy
        self.cores = cores
        self.levels = levels or default_levels(device.geometry)
        # level by free-block count: the highest level whose threshold the
        # count is at or below
        self._level_of_free = [None] * (device.geometry.blocks_per_bank + 1)
        for i, lvl in enumerate(self.levels):
            reach = min(max(lvl.free_threshold + 1, 0), len(self._level_of_free))
            self._level_of_free[:reach] = [i] * reach
        # [(lo_io, hi_io, permitted)]: the adaptive master's throttle
        self.bands = default_adaptive_map(io_workers, policy.max_gc_threads)
        # a bank at or below this many free blocks is flagged exclusiveGC
        self.panic_free_blocks = max(1, self.levels[-1].free_threshold // 2)
        self.stats = GcStats()
        self.log = []                 # (ts_us, event, bank, block)
        self.running = False
        self.io_activity = lambda: 0  # wired to IoEngine.recent_active
        self.permitted = policy.max_gc_threads
        self._paused = {}             # tid -> wake event
        self._actors = []
        self.active_threads = 0

    def _note(self, event, bank, block=-1):
        self.log.append((self.sched.now, event, bank, block))

    def export_log(self, path):
        with open(path, "w") as fh:
            fh.write("timestamp_us,event,bank,block\n")
            for row in self.log:
                fh.write(",".join(str(v) for v in row) + "\n")

    # ---- level / victim selection -------------------------------------------

    def current_level(self, bank):
        return self._level_of_free[self.state.banks[bank].free_blocks]

    def select_victim(self, bank, level):
        """The bank's fewest-valid occupied block within the level's valid
        threshold, ties to the lowest block number, never the open block;
        None when no block qualifies. Read from the victim index, so an idle
        bank costs a few integer operations (see FtlState.min_valid_block)."""
        return self.state.min_valid_block(bank, self.levels[level].valid_threshold)

    # ---- collection ------------------------------------------------------------

    def _claim_bank(self, bank):
        info = self.state.banks[bank]
        if info.gc_active:
            return False
        info.gc_active = True
        return True

    def _release_bank(self, bank):
        self.state.banks[bank].gc_active = False

    def collect_block(self, bank, block):
        """Copy the victim's valid pages into the same bank, then erase it.
        Returns the stats delta; aborts (no erase) if the bank runs out of
        room for copies, leaving already-moved pages consistent."""
        state = self.state
        before = self.stats.snapshot()
        t0 = self.sched.now
        self._note("victim-selected", bank, block)
        yield self.cores.charge(self.policy.round_cpu_us)
        gblock = bank * self.device.geometry.blocks_per_bank + block
        if int(state.valid_count[gblock]) > state.staging_room(bank):
            # not enough same-bank room to stage the copies; bail before
            # wasting writes (the caller tries another bank; the recovery
            # repair keeps serving banks out of this state)
            self._note("abort-no-room", bank, block)
            self.stats.busy_us += self.sched.now - t0
            return self.stats.delta(before)

        def remapped(won):
            self._note("copy", bank, block)
            if won:
                self.stats.valid_pages_copied += 1
            else:
                # user rewrote the lpn mid-copy; the fresh page stays invalid
                self.stats.wasted_copies += 1
        done = yield from move_live_pages(
            self.sched, self.device, state, bank, block,
            lambda: state.alloc_page_in_bank(bank), self.cores,
            self.policy.copy_cpu_us, remapped)
        if not done:
            self._note("abort-no-room", bank, block)
        elif int(state.valid_count[gblock]) == 0:
            yield self.cores.charge(self.policy.round_cpu_us)
            yield self.device.erase_block(bank, block, submit_us=self.sched.now)
            state.release_block(bank, block)
            self.stats.erases_performed += 1
            self.stats.blocks_collected += 1
            self._note("erase", bank, block)
        self.stats.busy_us += self.sched.now - t0
        return self.stats.delta(before)

    def _collect_step(self, bank):
        """One greedy collection of a claimed bank: at its current level,
        charge the scan, pick the victim and collect it. Returns the stats
        delta, or None when the bank breaches no threshold, no victim
        qualifies, or the bank had no room to stage the victim's copies."""
        level = self.current_level(bank)
        if level is None:
            return None
        yield self.cores.charge(self.policy.scan_cpu_us)
        victim = self.select_victim(bank, level)
        if victim is None:
            return None
        delta = yield from self.collect_block(bank, victim)
        if delta.blocks_collected or delta.valid_pages_copied or delta.wasted_copies:
            return delta
        return None

    # ---- NPGC (inline, write path) ----------------------------------------------

    @property
    def inline(self):
        """Whether writers collect before they write: always under NPGC, and
        under every policy once the collectors are stopped."""
        return self.policy.kind == "NPGC" or not self.running

    def npgc_before_write(self, bank):
        """Collect the bank until it exits its highest breached threshold (or
        no victim qualifies) before the caller's write proceeds."""
        if self.current_level(bank) is None:
            return
        if not self._claim_bank(bank):
            # another writer is already collecting this bank; wait it out
            while self.state.banks[bank].gc_active:
                yield self.policy.idle_poll_us
            return
        try:
            rounds = 0
            while rounds < self.device.geometry.blocks_per_bank:
                # `_collect_step`'s statements, without its generator: each
                # device wait of the writer's collection passes one less
                level = self.current_level(bank)
                if level is None:
                    break
                yield self.cores.charge(self.policy.scan_cpu_us)
                victim = self.select_victim(bank, level)
                if victim is None:
                    break
                delta = yield from self.collect_block(bank, victim)
                if not (delta.blocks_collected or delta.valid_pages_copied
                        or delta.wasted_copies):
                    break
                rounds += 1
            self.stats.rounds += 1 if rounds else 0
        finally:
            self._release_bank(bank)

    # ---- parallel co-running collectors -------------------------------------------

    def _eligible_banks(self):
        """Banks breaching a threshold, most starved first."""
        level_of_free = self._level_of_free
        banks = sorted((info.free_blocks, bank)
                       for bank, info in enumerate(self.state.banks)
                       if level_of_free[info.free_blocks] is not None)
        return [b for _, b in banks]

    def gc_worker_round(self, tid):
        """One collection round: claim an eligible bank (avoiding banks being
        written when possible), collect one victim, release. Returns the
        stats delta or None when nothing was eligible."""
        candidates = self._eligible_banks()
        if not candidates:
            return None
        quiet = [b for b in candidates if self.state.banks[b].writers_active == 0]
        ordered = quiet + [b for b in candidates if b not in quiet]
        for bank in ordered:
            if not self._claim_bank(bank):
                continue
            try:
                delta = yield from self._collect_step(bank)
            finally:
                self._release_bank(bank)
            if delta is not None:
                self.stats.rounds += 1
                return delta
            # nothing collectable here; move on to the next candidate
        return None

    def worker_loop(self, tid):
        """Collector `tid`. Under the adaptive policy collector 0 is the
        master: it throttles before each round and so never parks, which
        keeps exactly one collector running at full IO load; the others park
        while their tid is over the throttle."""
        adaptive = self.policy.kind == "PLLGC_ADAPTIVE"
        master = adaptive and tid == 0
        self.active_threads += 1
        while self.running:
            if master:
                self.master_tick()
            elif adaptive and tid >= self.permitted:
                ev = self.sched.event()
                self._paused[tid] = ev
                self.active_threads -= 1
                yield ev
                if not self.running:
                    return
                self.active_threads += 1
                continue
            did = yield from self.gc_worker_round(tid)
            if did is None:
                yield self.policy.idle_poll_us
            else:
                # re-check the throttle between rounds
                yield self.policy.master_tick_us if master else 1
        self.active_threads -= 1

    # ---- adaptive master ---------------------------------------------------------

    def master_tick(self):
        """Throttle collector count by IO activity and flag the single most
        starved bank exclusiveGC until it recovers past the hysteresis."""
        active_io = self.io_activity()
        previous = self.permitted
        self.permitted = next((permitted for lo, hi, permitted in self.bands
                               if lo <= active_io <= hi), 1)
        if self.permitted != previous:
            self._note("throttle-change", self.permitted, active_io)
        for tid in sorted(list(self._paused)):
            if tid < self.permitted:
                ev = self._paused.pop(tid)
                ev.fire()
        panic = self.panic_free_blocks
        clear_at = panic + PANIC_HYSTERESIS
        worst, worst_free = None, None
        for bank, info in enumerate(self.state.banks):
            if info.exclusive_gc and info.free_blocks >= clear_at:
                info.exclusive_gc = False
                self._note("exclusive-clear", bank)
            if worst_free is None or info.free_blocks < worst_free:
                worst, worst_free = bank, info.free_blocks
        if worst is not None and worst_free <= panic:
            if not self.state.banks[worst].exclusive_gc:
                self.state.banks[worst].exclusive_gc = True
                self._note("exclusive-set", worst)
        return self.permitted

    # ---- lifecycle -------------------------------------------------------------------

    def start(self):
        self.running = True
        self.active_threads = 0
        if self.policy.kind == "NPGC":
            return []
        self._actors = [self.sched.spawn(self.worker_loop(tid), f"gc-worker-{tid}")
                        for tid in range(self.policy.max_gc_threads)]
        return self._actors

    def stop(self):
        self.running = False
        for tid in list(self._paused):
            self._paused.pop(tid).fire()
