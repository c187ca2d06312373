import gc
import random

import pytest

from bankftl.errors import ConfigurationError, EngineStateError
from bankftl.ftl_state import UNMAPPED, BankInfo, FtlState
from bankftl.io_engine import EngineParams, IoEngine, IoRequest
from bankftl.sched import Event, Scheduler
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


def test_select_buffer_preference_order(engine):
    eng = engine
    io = eng.io
    slot, origin = io._select_buffer()
    assert origin == "empty"
    io.empty_q.clear()
    # stage a full slot and a partial slot
    full = io.slots[0]
    full.lpn = 100
    full.dirty = io.full_mask
    io.full_q.append(0)
    partial = io.slots[1]
    partial.lpn = 101
    partial.dirty = 1
    partial.last_access = 50
    got, origin = io._select_buffer()
    assert origin == "full" and got.index == 0
    got, origin = io._select_buffer()
    assert origin == "partial" and got.index == 1


def test_select_buffer_lru_partial_oracle(engine):
    eng = engine
    io = eng.io
    io.empty_q.clear()
    stamps = {}
    for idx in (2, 3, 4):
        slot = io.slots[idx]
        slot.lpn = 200 + idx
        slot.dirty = 1
        slot.last_access = idx * 17 % 29
        stamps[idx] = slot.last_access
    oracle = min(stamps, key=stamps.get)
    got, origin = io._select_buffer()
    assert origin == "partial" and got.index == oracle


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
    io = IoEngine(Scheduler(5), device, _BankTable(n),
                  EngineParams(num_buffers=1))
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


def test_dispatch_spread_matches_hash_oracle():
    eng = tiny_engine(queues=4, buffers=8)
    sectors = list(range(64))
    expected = {}
    for lsn in sectors:
        expected.setdefault((lsn // SPP) % 4, []).append(lsn)
    seen = {}
    for lsn in sectors:
        req = IoRequest("write", lsn, b"\x00" * SECTOR)
        qi = eng.io._dispatch(req)
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
        "dispatch = round_robin\n# comment\n")
    assert (params.num_queues, params.num_buffers) == (8, 32)
    assert params.idle_flush_seconds == 2.5
    assert params.dispatch == "round_robin"
    with pytest.raises(ConfigurationError):
        EngineParams.from_text("bogus_key = 1\n")


def test_round_robin_dispatch_mode():
    eng = tiny_engine()
    eng.io.params.dispatch = "round_robin"
    qis = {eng.io._dispatch(IoRequest("write", 0, b"")) for _ in range(8)}
    assert len(qis) == 4
    eng.shutdown(clean=True)


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
