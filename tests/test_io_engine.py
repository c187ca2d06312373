import gc
import random
from dataclasses import replace

import pytest

from bankftl import bench
from bankftl.engine import Engine, EngineConfig
from bankftl.errors import AddressError, ConfigurationError, EngineStateError
from bankftl.ftl_state import UNMAPPED, BankInfo, FtlState
from bankftl.gc_engine import GcPolicy
from bankftl.io_engine import EngineParams, IoEngine, IoRequest
from bankftl.sched import CorePool, Event, Scheduler
from bankftl.sim_flash import PROFILES, SimFlashDevice

from conftest import TINY, ShadowBlockDevice, sector_payload, tiny_engine

SECTOR = TINY.read_unit
SPP = TINY.sectors_per_page


def wsec(eng, lsn, tag=None):
    data = sector_payload(tag if tag is not None else lsn, SECTOR)
    eng.write_sector(lsn, data)
    return data


def test_eight_sector_accumulation_single_flash_write(engine):
    eng = engine
    base = eng.device.device_stats().pages_written
    slot_states = []
    for s in range(SPP):
        wsec(eng, s)
        idx = eng.state.buf_find(0)
        slot = eng.io.slots[idx]
        slot_states.append((slot.dirty, slot.lpn))
    # one slot walked empty -> partial -> full, no flash traffic yet
    assert slot_states[0][0] != eng.io.full_mask
    assert slot_states[-1][0] == eng.io.full_mask
    assert all(lpn == 0 for _, lpn in slot_states)
    assert eng.device.device_stats().pages_written == base
    # filling every buffer forces an eviction: exactly one page write
    for lpn in range(1, eng.io.params.num_buffers + 1):
        wsec(eng, lpn * SPP)
    assert eng.device.device_stats().pages_written == base + 1
    assert eng.io.counters["evictions"] == 1


def test_buffered_lpn_reuses_slot(engine):
    eng = engine
    wsec(eng, 0)
    hits0 = eng.io.counters["cache_hits"]
    wsec(eng, 1)
    wsec(eng, 2)
    assert eng.io.counters["cache_hits"] == hits0 + 2
    assert eng.io.counters["cache_misses"] == 1


def test_partial_eviction_merges_with_flash(engine):
    eng = engine
    # flush a full page for lpn 0, then dirty 3 sectors and evict
    originals = [wsec(eng, s, tag=("old", s)) for s in range(SPP)]
    eng.flush()
    fresh = [wsec(eng, s, tag=("new", s)) for s in range(3)]
    eng.flush()
    for s in range(SPP):
        expect = fresh[s] if s < 3 else originals[s]
        assert eng.read_sector(s) == expect
    assert eng.io.counters["merges"] >= 1


def test_partial_eviction_of_unmapped_lpn_zero_fills(engine):
    eng = engine
    data = wsec(eng, 5)         # sector 5 of lpn 0, never flashed before
    eng.flush()
    assert eng.read_sector(5) == data
    assert eng.read_sector(4) == b"\x00" * SECTOR


def idle(eng, us):
    """Let `us` of virtual time pass on an otherwise idle engine."""
    def wait():
        yield us
    eng.run(wait())


def test_select_buffer_preference_order(engine):
    eng = engine
    io = eng.io
    slot, origin = io._select_buffer()
    assert origin == "empty"
    io.empty_q.appendleft(slot.index)
    # stage a full slot and a partial slot through the write path
    for s in range(SPP):
        wsec(eng, 100 * SPP + s)
    idle(eng, 50)
    wsec(eng, 101 * SPP)
    io.empty_q.clear()
    assert eng.state.buf_find(100) == 0 and eng.state.buf_find(101) == 1
    assert io.slots[0].dirty == io.full_mask and io.slots[1].dirty == 1
    got, origin = io._select_buffer()
    assert origin == "full" and got.index == 0
    got, origin = io._select_buffer()
    assert origin == "partial" and got.index == 1


def test_select_buffer_lru_partial_oracle(engine):
    eng = engine
    io = eng.io
    io.empty_q.popleft()
    io.empty_q.popleft()
    # install lpns 202-204 in slots 2-4, then touch them again, each at
    # its own time, in an order other than the slots'
    for idx in (2, 3, 4):
        wsec(eng, (200 + idx) * SPP)
    start = eng.sched.now
    for idx in sorted((2, 3, 4), key=lambda i: i * 17 % 29):
        idle(eng, start + idx * 17 % 29 - eng.sched.now)
        wsec(eng, (200 + idx) * SPP + 1)
    io.empty_q.clear()
    stamps = {}
    for idx in (2, 3, 4):
        slot = io.slots[idx]
        assert slot.lpn == 200 + idx and slot.dirty == 0b11
        stamps[idx] = slot.last_access
    oracle = min(stamps, key=stamps.get)
    got, origin = io._select_buffer()
    assert origin == "partial" and got.index == oracle


def test_partial_picks_of_one_instant_go_by_slot_index(engine):
    """Slots written at the instant of a pick, before it and after it, tie
    on last_access: the lowest slot index goes first."""
    eng = engine
    io = eng.io
    for lpn in range(4):
        wsec(eng, lpn * SPP)          # slots 0-3 partial, stamped in turn
    io.empty_q.clear()
    data = sector_payload("tie", SECTOR)
    io._write_into_slot(io.slots[3], 1, data)
    picks = []
    for _ in range(4):
        slot, origin = io._select_buffer()
        assert origin == "partial"
        picks.append(slot.index)
        io._write_into_slot(slot, 2, data)      # as the installing write does
    assert picks == [0, 1, 2, 0]


def take_page(eng, exclude=()):
    """Pick a bank and allocate its next page in one step, as the engine's
    own flush does."""
    bank = eng.io.pick_bank(exclude)
    ppn = eng.state.alloc_page_in_bank(bank, eng.io.params.gc_reserve_blocks)
    return TINY.split_ppn(ppn), bank


def test_pick_bank_skips_gc_banks(engine):
    eng = engine
    for bank in range(1, TINY.num_banks):
        eng.state.banks[bank].gc_active = True
    addr, bank = take_page(eng)
    assert bank == 0
    eng.state.banks[0].gc_active = True   # now everything is flagged
    addr, bank = take_page(eng)
    assert 0 <= bank < TINY.num_banks     # random pick still delivers
    for bank in range(TINY.num_banks):
        eng.state.banks[bank].gc_active = False


class _BankTable:
    """The part of FtlState that pick_bank reads: bank records and has_room."""

    num_lpns = 1
    has_room = FtlState.has_room

    def __init__(self, num_banks):
        self.banks = [BankInfo(0) for _ in range(num_banks)]


def reference_pick_bank(io, exclude=()):
    """The bank choice rule as first written: list every candidate in
    rotation order, take the first without a GC flag, else pick at random."""
    n = io.device.geometry.num_banks
    candidates = []
    for i in range(n):
        bank = (io._bank_cursor + i) % n
        if bank in exclude or not io.state.has_room(
                bank, io.params.gc_reserve_blocks):
            continue
        candidates.append(bank)
    if not candidates:
        return None
    for bank in candidates:
        info = io.state.banks[bank]
        if not (info.gc_active or info.exclusive_gc):
            io._bank_cursor = (bank + 1) % n
            return bank
    bank = io.sched.rng.choice(candidates)
    io._bank_cursor = (bank + 1) % n
    return bank


@pytest.mark.parametrize("profile", ["desk8", "card512"])
def test_pick_bank_matches_reference_rule(profile):
    device = SimFlashDevice(PROFILES[profile])
    n = device.geometry.num_banks
    sched = Scheduler(5)
    io = IoEngine(sched, device, _BankTable(n), EngineParams(num_buffers=1),
                  CorePool(sched, 1))
    rng = random.Random(profile)
    outcomes = set()
    for _ in range(3000):
        io.params.gc_reserve_blocks = rng.randrange(3)
        p_room = rng.choice((0.0, 0.3, 0.9, 1.0))
        p_flag = rng.choice((0.0, 0.5, 0.9, 1.0))
        for info in io.state.banks:
            info.free_blocks = rng.randrange(3) if rng.random() < p_room else 0
            info.current_block = rng.choice((None, 7))
            info.gc_active = rng.random() < p_flag
            info.exclusive_gc = rng.random() < p_flag / 2
        exclude = set(rng.sample(range(n), rng.choice((0, 1, n // 2))))
        io._bank_cursor = rng.randrange(n)
        before = (io._bank_cursor, io.sched.rng.getstate())
        want = (reference_pick_bank(io, exclude), io._bank_cursor,
                io.sched.rng.getstate())
        io._bank_cursor, _ = before
        io.sched.rng.setstate(before[1])
        got = (io.pick_bank(exclude), io._bank_cursor, io.sched.rng.getstate())
        assert got == want
        drew = want[2] != before[1]
        outcomes.add("none" if want[0] is None else "random" if drew else "rotation")
    assert outcomes == {"none", "random", "rotation"}


def test_pick_bank_sequential_fill(engine):
    eng = engine
    for bank in range(1, TINY.num_banks):
        eng.state.banks[bank].gc_active = True
    pages = []
    for _ in range(TINY.pages_per_block + 1):
        addr, bank = take_page(eng)
        assert bank == 0
        pages.append((addr.block, addr.page))
    first_block = pages[0][0]
    assert [p for b, p in pages[:-1] if b == first_block] == list(range(TINY.pages_per_block))
    assert pages[-1] == (pages[-1][0], 0) and pages[-1][0] != first_block
    for bank in range(1, TINY.num_banks):
        eng.state.banks[bank].gc_active = False


def test_read_paths_cache_flash_and_zero(engine):
    eng = engine
    data = wsec(eng, 9)
    assert eng.read_sector(9) == data          # cache hit
    eng.flush()
    assert eng.read_sector(9) == data          # flash path
    assert eng.read_sector(9 + SPP) == b"\x00" * SECTOR   # never written


def test_read_your_writes_through_random_ops(engine):
    eng = engine
    shadow = ShadowBlockDevice(SECTOR)
    import random
    rng = random.Random(77)
    sectors = eng.io.num_sectors
    for step in range(400):
        lsn = rng.randrange(min(sectors, 40 * SPP))
        if rng.random() < 0.6:
            data = sector_payload(step, SECTOR)
            eng.write_sector(lsn, data)
            shadow.write(lsn, data)
        else:
            assert eng.read_sector(lsn) == shadow.expected(lsn)
        if step % 97 == 0:
            eng.flush()
    eng.flush()
    for lsn in list(shadow.acked)[:50]:
        assert eng.read_sector(lsn) == shadow.expected(lsn)


def test_flush_daemon_tick_threshold(engine):
    eng = engine
    eng.io.params.idle_flush_seconds = 60.0
    wsec(eng, 0)
    idx = eng.state.buf_find(0)
    eng.io.slots[idx].last_access = eng.sched.now - 61_000_000
    flushed = eng.run(eng.io.flush_daemon_tick(eng.sched.now))
    assert flushed == 1
    assert eng.state.buf_find(0) is None
    assert eng.read_sector(0) is not None
    # young buffers stay put
    wsec(eng, SPP)
    assert eng.run(eng.io.flush_daemon_tick(eng.sched.now)) == 0
    # empty pool is a no-op
    eng.flush()
    assert eng.run(eng.io.flush_daemon_tick(eng.sched.now)) == 0


def test_flush_all_durability_and_idempotence(engine):
    eng = engine
    writes = {s: wsec(eng, s) for s in range(0, 3 * SPP, 3)}
    eng.flush()
    pw = eng.device.device_stats().pages_written
    eng.flush()                       # nothing dirty: second barrier no-op
    assert eng.device.device_stats().pages_written == pw
    for lsn, data in writes.items():
        assert eng.read_sector(lsn) == data


def test_flush_all_with_concurrent_writers():
    eng = tiny_engine(queues=4, buffers=8)
    acked = {}

    def writer():
        for i in range(40):
            lsn = (i * 3) % (20 * SPP)
            data = sector_payload(("w", i), SECTOR)
            req = IoRequest("write", lsn, data)
            eng.io.submit(req)
            yield req.done
            acked[lsn] = data

    w = eng.sched.spawn(writer(), "writer")
    eng.pump(w.done_event)
    eng.flush()
    eng.shutdown(clean=True)
    eng2 = tiny_engine(queues=4, buffers=8)
    # same device image is not shared; verify through a fresh cold start on
    # the shut-down engine's device instead
    eng2.shutdown(clean=True)
    from bankftl.checkpoint import Checkpointer
    from bankftl.ftl_state import FtlState
    from bankftl.sched import Scheduler
    sched = Scheduler(0)
    state = FtlState(eng.device.geometry, 8, 0.875)
    loader = Checkpointer(sched, eng.device, state, 4)
    assert sched.join(sched.spawn(loader.load(), "load"))
    g = eng.device.geometry
    for lsn, data in acked.items():
        lpn, off = divmod(lsn, SPP)
        ppn = int(state.map[lpn])
        page, _, _ = eng.device.read_page(g.split_ppn(ppn))
        assert page[off * SECTOR:(off + 1) * SECTOR] == data


def buffer_queue_faults(io):
    """Slots that no buffer pick could find: an empty slot without an
    `empty_q` entry, or dirty; a full slot without a `full_q` entry. Every
    other slot is a partial candidate."""
    empty, full = set(io.empty_q), set(io.full_q)
    faults = []
    for slot in io.slots:
        if slot.lpn is None:
            if slot.index not in empty or slot.dirty:
                faults.append(("empty", slot.index, slot.dirty))
        elif slot.dirty == io.full_mask and slot.index not in full:
            faults.append(("full", slot.index, slot.lpn))
    return faults


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_every_buffer_pick_finds_a_slot(seed):
    """Concurrent writes, daemon flushes and flush barriers keep every slot
    findable, so a write miss installs its buffer in the step it starts."""
    eng = Engine.start(EngineConfig(
        profile="tiny", export_ratio=0.6, seed=seed,
        io=EngineParams(num_queues=4, num_buffers=4, idle_flush_seconds=0.002,
                        daemon_tick_us=1_500),
        policy=GcPolicy(kind="PLLGC", max_gc_threads=1)))
    select = eng.io._select_buffer
    origins, faults, partial_picks = [], [], []

    def checked_select():
        faults.extend(buffer_queue_faults(eng.io))
        io = eng.io
        partial = [(slot.last_access, slot.index) for slot in io.slots
                   if slot.lpn is not None and slot.dirty != io.full_mask]
        slot, origin = select()
        origins.append(origin)
        if origin == "partial":
            # the least (last_access, index) over the partial slots
            partial_picks.append((slot.index, min(partial)[1]))
        return slot, origin

    eng.io._select_buffer = checked_select
    rng = random.Random(seed)

    def client(cid):
        for i in range(60):
            lpn = rng.randrange(24)
            if rng.random() < 0.05:
                reqs = [IoRequest("flush", 0)]
            elif rng.random() < 0.2:       # a read hit touches its slot
                reqs = [IoRequest("read", lpn * SPP + rng.randrange(SPP))]
            elif rng.random() < 0.3:       # a whole page: the slot fills
                reqs = [IoRequest("write", lpn * SPP + s,
                                  sector_payload((cid, i, s), SECTOR))
                        for s in range(SPP)]
            else:
                reqs = [IoRequest("write", lpn * SPP + rng.randrange(SPP),
                                  sector_payload((cid, i), SECTOR))]
            for req in reqs:
                eng.submit(req)
                yield req.done
                assert req.error is None, req.error
            yield rng.randrange(4_000)     # lets buffers idle for the daemon

    actors = [eng.sched.spawn(client(c), f"client-{c}") for c in range(6)]
    for actor in actors:
        eng.pump(actor.done_event)
    faults.extend(buffer_queue_faults(eng.io))
    assert faults == []
    assert {"empty", "full", "partial"} <= set(origins)
    assert len(partial_picks) >= 10
    assert all(got == least for got, least in partial_picks), partial_picks
    assert eng.io.counters["daemon_flushes"] > 0
    eng.flush()
    assert buffer_queue_faults(eng.io) == []
    eng.audit(deep=True)
    eng.shutdown(clean=True)


def test_dispatch_spread_matches_hash_oracle():
    eng = tiny_engine(queues=4, buffers=8)
    sectors = list(range(64))
    expected = {}
    for lsn in sectors:
        expected.setdefault((lsn // SPP) % 4, []).append(lsn)
    seen = {}
    for lsn in sectors:
        req = IoRequest("write", lsn, b"\x00" * SECTOR)
        qi = eng.io._dispatch(req.lsn)
        seen.setdefault(qi, []).append(lsn)
    assert seen == expected
    assert len(seen) == 4            # all queues engaged
    eng.shutdown(clean=True)


def test_single_queue_fifo_same_sector():
    eng = tiny_engine(queues=1, buffers=4)
    reqs = []
    for i in range(8):
        req = IoRequest("write", 3, sector_payload(("fifo", i), SECTOR))
        eng.io.submit(req)
        reqs.append(req)
    finish_order = []

    def watcher(req, i):
        yield req.done
        finish_order.append(i)

    watchers = [eng.sched.spawn(watcher(req, i), f"w{i}")
                for i, req in enumerate(reqs)]
    for w in watchers:
        eng.pump(w.done_event)
    assert finish_order == list(range(8))   # strict FIFO through one worker
    assert all(req.error is None for req in reqs)
    assert eng.read_sector(3) == reqs[-1].data   # last write wins
    eng.shutdown(clean=True)


def test_submit_after_shutdown_rejected():
    eng = tiny_engine()
    eng.shutdown(clean=True)
    with pytest.raises(EngineStateError):
        eng.io.submit(IoRequest("write", 0, b"\x00" * SECTOR))
    with pytest.raises(EngineStateError):
        eng.write_sector(0, b"\x00" * SECTOR)


def test_engine_params_from_text_and_validation():
    params = EngineParams.from_text(
        "num_queues = 8\nnum_buffers=32\nidle_flush_seconds = 2.5\n"
        "gc_reserve_blocks = 2 # trailing comment\n# comment\n")
    assert (params.num_queues, params.num_buffers) == (8, 32)
    assert params.idle_flush_seconds == 2.5
    assert params.gc_reserve_blocks == 2
    with pytest.raises(ConfigurationError):
        EngineParams.from_text("bogus_key = 1\n")


@pytest.mark.parametrize("line", ["num_queues = eight", "num_buffers = 2.5",
                                  "idle_flush_seconds = soon", "cpu_us ="])
def test_engine_params_from_text_names_a_key_whose_value_is_not_a_number(line):
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        EngineParams.from_text(f"num_queues = 8\n{line}\n")


def test_write_amplification_reported(engine):
    eng = engine
    for lpn in range(12):
        for s in range(SPP):
            wsec(eng, lpn * SPP + s)
    eng.flush()
    stats = eng.stats()
    assert stats["write_amplification"] >= 1.0
    assert stats["device"]["pages_written"] >= 12


# ---- the request handshake makes no events ----------------------------------

def test_request_is_its_own_completion_event():
    req = IoRequest("write", 0, b"\x00" * SECTOR)
    assert req.done is req and not req.fired
    eng = tiny_engine()
    eng.submit(req)
    eng.pump(req.done)
    assert req.fired and req.result is True and req.error is None
    eng.shutdown(clean=True)


def test_completed_requests_are_not_cyclic_garbage():
    # a request that referenced itself (or an event that referenced it)
    # would keep its payload alive until the cyclic collector ran
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        eng = tiny_engine()
        for lsn in range(200):
            wsec(eng, lsn)
            eng.read_sector(lsn)
        eng.shutdown(clean=True)
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, (IoRequest, Event))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def test_sync_writes_create_no_events(monkeypatch):
    eng = tiny_engine()
    wsec(eng, 0)      # each worker's first step makes its one wake event
    made = []
    event = Scheduler.event

    def counted(sched):
        made.append(sched.now)
        return event(sched)

    monkeypatch.setattr(Scheduler, "event", counted)
    for i in range(1000):
        wsec(eng, i % 64, tag=("ev", i))
    assert made == []
    eng.shutdown(clean=True)


def test_clean_shutdown_joins_workers_parked_on_rearmed_wakes():
    eng = tiny_engine(queues=4)
    for lpn in range(4):                 # one page per queue
        wsec(eng, lpn * SPP)
    parked = list(eng.io._wake)
    assert all(ev is not None and not ev.fired for ev in parked)
    for lpn in range(4):                 # wake every worker once more
        wsec(eng, lpn * SPP + 1)
    assert all(now is then for now, then in zip(eng.io._wake, parked))
    assert all(not ev.fired for ev in parked)
    workers = list(eng._workers)
    assert not any(w.done for w in workers)
    eng.shutdown(clean=True)
    assert all(w.done for w in workers)
    assert eng.io._wake == [None] * 4


# ---- runs of buffered writes served in the waiting caller's step -------------
#
# `write_run` must leave every observable exactly as the queued path would:
# each scenario runs twice, once as is and once with `write_run` serving
# nothing and submitting the run's first sector, so that every sector is
# submitted and waited on, and the two snapshots must be equal.

def _queued_only(monkeypatch):
    def queue_first(self, lsn, data):
        return self.submit(IoRequest("write", lsn, data[:self.sector_size]))
    monkeypatch.setattr(IoEngine, "write_run", queue_first)


def _counting_runs(monkeypatch, runs):
    """Records `(sectors asked, sectors served, request returned)` of every
    `write_run`."""
    write_run = IoEngine.write_run

    def counted(self, lsn, data):
        req = write_run(self, lsn, data)
        n = len(data) // self.sector_size
        runs.append((n, n if req is None else req.lsn - lsn, req))
        return req
    monkeypatch.setattr(IoEngine, "write_run", counted)


def _snapshot(eng, records):
    io = eng.io
    return {
        "records": records,
        "now": eng.sched.now,
        "free_at": list(eng.cores.free_at),
        "last_work_us": list(io.last_work_us),
        "busy": list(io._busy),
        "io": dict(io.counters),
        "gc": dict(vars(eng.gc.stats)),
        "device": eng.device.device_stats(),
        "request_log": list(eng.device.request_log),
        "error_log": list(io.error_log),
        "slots": [(s.lpn, s.dirty, s.last_access, bytes(s.data))
                  for s in io.slots],
        "full_q": list(io.full_q),
        "map": eng.state.map.tobytes(),
        "audit": eng.audit(),
        "heap": [(at, seq) for at, seq, _ in sorted(eng.sched._heap)],
    }


def _write_and_wait(eng, lsn, payloads):
    """Writes `payloads`, one sector each, from `lsn` on as a client that
    waits on each sector before the next, as `bench` does: `write_run`
    serves what it can and queues the sector it stops at, which is waited
    on, and the run goes on after it. Returns the failed sectors' errors."""
    errors = []
    i = 0
    while i < len(payloads):
        req = eng.io.write_run(lsn + i, b"".join(payloads[i:]))
        if req is None:
            break
        yield req
        if req.error is not None:
            errors.append((req.lsn, repr(req.error)))
        i = req.lsn - lsn + 1
    return errors


def _mixed_client(eng, rng, tid, ops, sync_sectors, region, hot, records):
    """Reads and writes. A client that syncs every sector writes runs of
    random length within a page (`_write_and_wait`) and waits on each read;
    any other waits on each batch of `sync_sectors` requests."""
    sched = eng.sched
    pending = []
    for i in range(ops):
        pool = hot if rng.random() < 0.75 else region
        lsn = rng.choice(pool) * SPP + rng.randrange(SPP)
        entry = [tid, i, lsn, sched.now]
        if rng.random() < 0.35:
            req = IoRequest("read", lsn)
        elif sync_sectors == 1:
            payloads = [sector_payload((tid, i, k), SECTOR)
                        for k in range(rng.randint(1, SPP - lsn % SPP))]
            errors = yield from _write_and_wait(eng, lsn, payloads)
            records.append(entry + [len(payloads), sched.now, errors])
            req = None
        else:
            req = IoRequest("write", lsn, sector_payload((tid, i), SECTOR))
        if req is not None:
            pending.append((eng.io.submit(req), entry))
            if len(pending) < sync_sectors:
                continue
            for done, row in pending:
                if not done.fired:
                    yield done
                records.append(row + [sched.now, done.result, repr(done.error)])
            pending = []
        if rng.random() < 0.3:
            yield rng.choice((0, 0, 1, 4, 10, 11, 37))


def _mixed_run(policy_kind, seed):
    rng = random.Random(seed)
    eng = tiny_engine(policy=GcPolicy(kind=policy_kind, max_gc_threads=2),
                      queues=rng.choice((2, 4)), buffers=rng.choice((2, 3, 5)),
                      seed=seed)
    eng.device.enable_request_log()
    region = list(range(eng.state.num_lpns * 3 // 4))
    records = []
    clients = []
    for tid in range(rng.randrange(2, 5)):
        hot = rng.sample(region, 3)
        sync = 1 if tid % 2 == 0 else rng.choice((1, SPP))
        clients.append(eng.sched.spawn(_mixed_client(
            eng, random.Random(seed * 100 + tid), tid, 600, sync, region, hot,
            records), f"client-{tid}"))
    for actor in clients:
        eng.pump(actor.done_event)
    snap = _snapshot(eng, records)
    eng.shutdown(clean=True)
    return snap


@pytest.mark.parametrize("policy_kind", ["NPGC", "PLLGC", "PLLGC_ADAPTIVE"])
def test_served_hits_match_the_queued_path(monkeypatch, policy_kind):
    collected = cut = 0
    for seed in range(3):
        runs = []
        with monkeypatch.context() as m:
            _counting_runs(m, runs)
            got = _mixed_run(policy_kind, seed)
        with monkeypatch.context() as m:
            _queued_only(m)
            want = _mixed_run(policy_kind, seed)
        assert got == want, f"{policy_kind} seed {seed}"
        assert sum(1 for _, k, _ in runs if k) >= 30, "the path was hardly taken"
        assert sum(1 for n, k, _ in runs if k < n) >= 30
        cut += sum(1 for n, k, _ in runs if 0 < k < n)
        collected += got["gc"]["blocks_collected"]
        assert got["io"]["evictions"] and got["io"]["merges"]
        assert got["io"]["read_hits"] and got["io"]["cache_hits"]
    assert collected > 0
    assert cut >= 10, "hardly a run stopped after serving some sectors"


# Directed cases: a parked worker and a buffered LPN, so that only the one
# condition named by each case keeps sectors of the run off the served path.

def _directed_run(sleep_until=None, setup=None, payload=None, sectors=1):
    """Buffers LPN 0, then a client sleeps 50 us, runs `setup(eng, ctx)`
    and writes `sectors` sectors from sector 1 on (`_write_and_wait`).
    With `sleep_until`, another actor is due that many us after the first
    charge's start (when the client starts the run). Returns the snapshot."""
    eng = tiny_engine(policy=GcPolicy(kind="NPGC"), queues=2, buffers=4)
    eng.device.enable_request_log()
    wsec(eng, 0)
    cpu_us = eng.io.params.cpu_us
    assert eng.sched._heap[0][0] > eng.sched.now + 50 + SPP * cpu_us + 5
    ctx = {"pumped": eng.sched.event(), "finished": eng.sched.event()}
    records = []

    def sleeper():
        yield 50 + sleep_until

    def client():
        yield 50
        if setup is not None:
            setup(eng, ctx)
        payloads = [payload or sector_payload(("hit", k), SECTOR)
                    for k in range(sectors)]
        start = eng.sched.now
        errors = yield from _write_and_wait(eng, 1, payloads)
        records.append((eng.sched.now - start, errors))
        ctx["pumped"].fire()
        ctx["finished"].fire()

    if sleep_until is not None:
        eng.sched.spawn(sleeper(), "sleeper")
    eng.sched.spawn(client(), "client")
    eng.pump(ctx["pumped"])
    eng.pump(ctx["finished"])
    snap = _snapshot(eng, records)
    eng.shutdown(clean=True)
    return snap


def _fire_pumped(eng, ctx):
    ctx["pumped"].fire()


def _spawn_other(eng, ctx):
    def other():
        yield 0
    eng.sched.spawn(other(), "other")


def _busy_cores(eng, ctx):
    for _ in eng.cores.free_at:
        eng.cores.charge(5)              # every core busy for 5 more us


CPU = EngineParams().cpu_us

DIRECTED = {
    # (sleep_until, setup, payload, sectors) -> sectors the first run serves
    "heap-due-at-charge-end": ((CPU, None, None, 1), 0),
    "heap-due-after-charge-end": ((CPU + 1, None, None, 1), 1),
    "pumped-event-fired": ((None, _fire_pumped, None, 1), 0),
    "actor-in-fifo": ((None, _spawn_other, None, 1), 0),
    "busy-cores-heap-due-in-wait": ((CPU + 3, _busy_cores, None, 1), 0),
    "busy-cores-heap-due-at-end": ((CPU + 5, _busy_cores, None, 1), 0),
    "busy-cores-nothing-due": ((CPU + 6, _busy_cores, None, 1), 1),
    "wrong-size-payload": ((None, None, b"abc", 1), 0),
    # a run: sector k ends k * CPU after its start, later with busy cores
    "run-heap-due-between-sectors": ((2 * CPU + 1, None, None, 5), 2),
    "run-heap-due-at-a-sector-end": ((3 * CPU, None, None, 5), 2),
    "run-busy-cores-cut-it-short": ((3 * CPU + 1, _busy_cores, None, 5), 2),
    "run-to-the-page-end": ((None, None, None, SPP - 1), SPP - 1),
}


@pytest.mark.parametrize("case", sorted(DIRECTED))
def test_directed_submit_inline_cases(monkeypatch, case):
    args, want_served = DIRECTED[case]
    runs = []
    with monkeypatch.context() as m:
        _counting_runs(m, runs)
        got = _directed_run(*args)
    with monkeypatch.context() as m:
        _queued_only(m)
        want = _directed_run(*args)
    assert runs[0][1] == want_served
    req = runs[0][2]
    if want_served == args[3]:
        assert req is None                 # served to the end of the run
    else:                                  # the sector it stopped at
        assert (req.kind, req.lsn) == ("write", 1 + want_served)
    assert got == want
    took, errors = got["records"][0]
    if case == "wrong-size-payload":
        assert len(errors) == 1 and "AddressError" in errors[0][1]
    else:
        assert errors == []
        assert took == args[3] * CPU + (5 if "busy" in case else 0)


def test_write_run_serves_nothing_on_a_miss_or_a_busy_worker():
    eng = tiny_engine(queues=1, buffers=4)
    io = eng.io
    data = sector_payload("run", SECTOR)

    def client():
        miss = io.write_run(5 * SPP, data * 2)           # no buffer for LPN 5
        assert (miss.kind, miss.lsn, bytes(miss.data)) == ("write", 5 * SPP, data)
        assert list(io.queues[0]) == [miss]
        yield miss
        assert io.write_run(5 * SPP + 1, data * 2) is None
        first = io.submit(IoRequest("read", 5 * SPP))
        queued = io.write_run(5 * SPP + 3, data)         # the worker has a queue
        assert queued.lsn == 5 * SPP + 3 and list(io.queues[0]) == [first, queued]
        yield first
        assert first.result == data
        yield queued
        assert io.write_run(5 * SPP + 4, data) is None

    eng.pump(eng.sched.spawn(client(), "client").done_event)
    slot = eng.io.slots[eng.state.buf_find(5)]
    assert slot.dirty == 0b11111
    assert eng.io.counters["cache_hits"] == 4
    eng.shutdown(clean=True)


def test_write_run_rejects_a_page_crossing_and_a_stopped_engine():
    eng = tiny_engine()
    eng.device.enable_request_log()
    data = sector_payload("run", SECTOR)
    wsec(eng, 0)
    before = _snapshot(eng, [])
    with pytest.raises(AddressError, match="cross a page end"):
        eng.io.write_run(SPP - 2, data * 3)
    with pytest.raises(AddressError, match="outside exported capacity"):
        eng.io.write_run(eng.io.num_sectors, data)
    assert _snapshot(eng, []) == before
    # outside a scheduler step nothing is served: the first sector is queued
    req = eng.io.write_run(1, data * 2)
    assert (req.lsn, bytes(req.data)) == (1, data)
    eng.pump(req)
    assert req.error is None and eng.read_sector(1) == data
    eng.shutdown(clean=True)
    with pytest.raises(EngineStateError):
        eng.io.write_run(1, data)


@pytest.mark.parametrize("kind", ["NPGC", "PLLGC"])
def test_drive_with_runs_matches_the_queued_path(monkeypatch, kind):
    """A single writer overwriting 8x the buffer pool on an aged card, as
    the npgc-vs-pllgc preset does, scaled down. A page's first sector
    misses, so at most 7 of 8 sectors are served; PLLGC's collector polls
    cut some runs short (83% served on the full preset at seed 1)."""
    def drive():
        bundle = bench.preset("npgc-vs-pllgc", seed=1)
        eng = Engine.start(EngineConfig(
            profile=bundle.profile, io=EngineParams(num_queues=16, num_buffers=32),
            policy=GcPolicy(kind=kind, max_gc_threads=1), seed=1))
        eng.device.enable_request_log()
        bench.inject_aging(eng, bundle.aging)
        report = bench.drive(eng, replace(bundle.workload, region_lpns=256,
                                          rounds=4))
        snap = _snapshot(eng, [])
        eng.shutdown(clean=True)
        return report, snap

    runs = []
    with monkeypatch.context() as m:
        _counting_runs(m, runs)
        got = drive()
    with monkeypatch.context() as m:
        _queued_only(m)
        want = drive()
    assert got == want
    report = got[0]
    assert report.errors == 0 and report.blocks_collected > 0
    written = report.counters["io"]["user_sectors_written"]
    assert sum(k for _, k, _ in runs) >= 0.8 * written
