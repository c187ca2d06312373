import math
import random

import pytest

from bankftl import oob
from bankftl.bench import AgingSpec, aged_read_check, inject_aging
from bankftl.engine import Engine, EngineConfig
from bankftl.errors import ConfigurationError, EngineStateError
from bankftl.ftl_state import UNMAPPED
from bankftl.gc_engine import GcLevel, GcPolicy
from bankftl.io_engine import EngineParams, IoRequest

from conftest import TINY, sector_payload, tiny_engine

SECTOR = TINY.read_unit
SPP = TINY.sectors_per_page


def test_fresh_engine_serves_empty(engine):
    assert engine.recovered_via == "fresh"
    assert engine.read_sector(0) == b"\x00" * SECTOR
    stats = engine.stats()
    assert stats["io"]["user_sectors_written"] == 0
    assert stats["device"]["pages_written"] == 0


def test_config_cross_validation():
    with pytest.raises(ConfigurationError):
        EngineConfig(io=EngineParams(num_queues=0)).validate()
    with pytest.raises(ConfigurationError):
        EngineConfig(io=EngineParams(num_buffers=0)).validate()
    with pytest.raises(ConfigurationError):
        EngineConfig(policy=GcPolicy(kind="BOGUS")).validate()
    with pytest.raises(ConfigurationError):
        EngineConfig(export_ratio=0).validate()
    with pytest.raises(ConfigurationError):
        EngineConfig(levels=[GcLevel(4, 0), GcLevel(4, 2)]).validate()
    with pytest.raises(ConfigurationError):
        EngineConfig(levels=[GcLevel(4, 1), GcLevel(2, 2)]).validate()
    EngineConfig(levels=[GcLevel(4, 0), GcLevel(2, 2)]).validate()


def test_an_empty_level_table_is_rejected_by_name():
    # it raised IndexError from the check of the first valid threshold
    with pytest.raises(ConfigurationError, match="levels"):
        EngineConfig(profile="tiny", levels=[]).validate()


@pytest.mark.parametrize("cores", [0, -3, 1.5])
def test_host_cores_must_be_a_whole_number_of_at_least_one(cores):
    # 0 and -3 ran silently on one core
    with pytest.raises(ConfigurationError, match="host_cores"):
        Engine(EngineConfig(profile="tiny", host_cores=cores))
    assert Engine(EngineConfig(profile="tiny", host_cores=1)).cores.free_at == [0]


@pytest.mark.parametrize("kind", ["PLLGC", "PLLGC_ADAPTIVE"])
def test_collector_policies_need_a_collector(kind):
    # with no collector the first writer that runs out of space waits
    # forever: the run below never finished
    for threads in (0, -1):
        config = EngineConfig(profile="tiny",
                              policy=GcPolicy(kind=kind, max_gc_threads=threads))
        with pytest.raises(ConfigurationError, match="max_gc_threads"):
            Engine.start(config)
    EngineConfig(policy=GcPolicy(kind=kind, max_gc_threads=1)).validate()


def test_npgc_starts_no_collector_so_any_thread_count_is_accepted():
    eng = Engine.start(EngineConfig(
        profile="tiny", policy=GcPolicy(kind="NPGC", max_gc_threads=0)))
    eng.write_sector(0, b"\x01" * SECTOR)
    assert eng.read_sector(0) == b"\x01" * SECTOR
    eng.shutdown(clean=True)


BAD_TIMING = {
    # a zero period spins an actor at one virtual instant: the first write
    # of a tiny engine never returned with either of the first two
    "daemon_tick_us=0": (EngineParams(daemon_tick_us=0), None),
    "idle_poll_us=0": (None, GcPolicy(idle_poll_us=0)),
    "gc_wait_us=0": (EngineParams(gc_wait_us=0), None),
    "exhaust_timeout_us=0": (EngineParams(exhaust_timeout_us=0), None),
    "master_tick_us=-1": (None, GcPolicy(kind="PLLGC_ADAPTIVE",
                                         master_tick_us=-1)),
    # a negative cost made a write cost 0 us of virtual time
    "cpu_us=-1": (EngineParams(cpu_us=-1), None),
    "copy_cpu_us=-1": (None, GcPolicy(copy_cpu_us=-1)),
    "round_cpu_us=-1": (None, GcPolicy(round_cpu_us=-1)),
    "scan_cpu_us=-1": (None, GcPolicy(scan_cpu_us=-1)),
    # the scheduler truncates a fractional yield to 0 us: the first write
    # of a tiny engine spun at t=0 with either of the first two, and took
    # 0 us with the third
    "daemon_tick_us=0.5": (EngineParams(daemon_tick_us=0.5), None),
    "idle_poll_us=0.5": (None, GcPolicy(idle_poll_us=0.5)),
    "cpu_us=0.5": (EngineParams(cpu_us=0.5), None),
    "idle_flush_seconds=-1": (EngineParams(idle_flush_seconds=-1.0), None),
    "idle_flush_seconds=inf": (EngineParams(idle_flush_seconds=math.inf), None),
    "idle_flush_seconds=nan": (EngineParams(idle_flush_seconds=math.nan), None),
    # with a negative reserve user writes took every bank's last free block:
    # NPGC writes then failed and a PLLGC write waited out its timeout
    "gc_reserve_blocks=-1": (EngineParams(gc_reserve_blocks=-1), None),
    "gc_reserve_blocks=0.5": (EngineParams(gc_reserve_blocks=0.5), None),
}


@pytest.mark.parametrize("case", BAD_TIMING)
def test_timing_settings_that_hang_or_rewind_are_rejected(case):
    io, policy = BAD_TIMING[case]
    config = EngineConfig(profile="tiny", io=io or EngineParams(),
                          policy=policy or GcPolicy())
    with pytest.raises(ConfigurationError, match=case.split("=")[0]):
        Engine.start(config)


def test_zero_costs_and_an_immediate_idle_flush_are_accepted():
    eng = Engine.start(EngineConfig(
        profile="tiny", io=EngineParams(num_queues=2, cpu_us=0,
                                        idle_flush_seconds=0.0),
        policy=GcPolicy(copy_cpu_us=0, round_cpu_us=0, scan_cpu_us=0)))
    eng.write_sector(0, b"\x01" * SECTOR)
    assert eng.read_sector(0) == b"\x01" * SECTOR
    eng.shutdown(clean=True)


def test_clean_shutdown_restart_preserves_contents(tmp_path):
    image = str(tmp_path / "flash.img")
    eng = tiny_engine(image_path=image)
    written = {}
    for lsn in range(0, 6 * SPP, 5):
        data = sector_payload(lsn, SECTOR)
        eng.write_sector(lsn, data)
        written[lsn] = data
    eng.shutdown(clean=True)
    eng2 = tiny_engine(image_path=image)
    assert eng2.recovered_via == "checkpoint"
    for lsn, data in written.items():
        assert eng2.read_sector(lsn) == data
    eng2.shutdown(clean=True)


def test_checkpoint_load_read_count_within_bound(tmp_path):
    image = str(tmp_path / "flash.img")
    eng = tiny_engine(image_path=image)
    for lsn in range(0, 20 * SPP, 3):
        eng.write_sector(lsn, sector_payload(lsn, SECTOR))
    eng.shutdown(clean=True)
    eng2 = tiny_engine(image_path=image)
    probes = eng2.ckpt.window_probes
    assert probes <= 2 * eng2.config.checkpoint_k * TINY.num_banks
    loads = probes + eng2.ckpt.chain_reads
    scan_cost_floor = TINY.total_blocks           # a page scan probes every block
    assert loads < scan_cost_floor
    eng2.shutdown(clean=True)


def test_dirty_shutdown_recovers_flushed_writes(tmp_path):
    image = str(tmp_path / "flash.img")
    eng = tiny_engine(image_path=image)
    durable = {}
    for lpn in range(4):
        for s in range(SPP):
            lsn = lpn * SPP + s
            data = sector_payload(("durable", lsn), SECTOR)
            eng.write_sector(lsn, data)
            durable[lsn] = data
    eng.flush()
    lost = {}
    for s in range(3):
        lsn = 10 * SPP + s
        data = sector_payload(("lost", lsn), SECTOR)
        eng.write_sector(lsn, data)
        lost[lsn] = data
    dirty_now = eng.dirty_sectors()
    assert set(lost) <= set(dirty_now)
    eng.shutdown(clean=False)                   # crash: buffers dropped

    eng2 = tiny_engine(image_path=image)
    assert eng2.recovered_via == "recovery_scan"
    for lsn, data in durable.items():
        assert eng2.read_sector(lsn) == data
    for lsn in lost:
        assert eng2.read_sector(lsn) == b"\x00" * SECTOR
    eng2.shutdown(clean=True)


def test_abort_stops_serving_and_leaves_the_image_file_as_it_was(tmp_path):
    image = tmp_path / "card.img"
    eng = tiny_engine(image_path=str(image))
    eng.write_sector(0, b"\x05" * SECTOR)
    eng.shutdown(clean=True)
    saved = image.read_bytes()
    eng = tiny_engine(image_path=str(image))
    eng.write_sector(SPP, b"\x06" * SECTOR)
    eng.flush()
    eng.abort()
    assert image.read_bytes() == saved
    for call in (eng.abort, eng.shutdown, lambda: eng.read_sector(0)):
        with pytest.raises(EngineStateError):
            call()


def test_double_shutdown_rejected(engine):
    engine.shutdown(clean=True)
    with pytest.raises(EngineStateError):
        engine.shutdown(clean=True)
    with pytest.raises(EngineStateError):
        engine.read_sector(0)


def test_stats_write_amplification_definition(engine):
    eng = engine
    # full pages, no GC, no merges: WA exactly 1 before any checkpoint
    for lpn in range(3):
        for s in range(SPP):
            eng.write_sector(lpn * SPP + s, sector_payload((lpn, s), SECTOR))
    for lpn in range(3, 3 + eng.io.params.num_buffers):
        for s in range(SPP):
            eng.write_sector(lpn * SPP + s, sector_payload((lpn, s), SECTOR))
    eng.flush()
    stats = eng.stats()
    assert stats["write_amplification"] == pytest.approx(1.0)
    assert stats["device"]["blocks_erased"] == 0


def test_stats_match_shadow_replay(engine):
    eng = engine
    eng.device.enable_request_log()
    for lsn in range(0, 12 * SPP, 2):
        eng.write_sector(lsn, sector_payload(lsn, SECTOR))
    eng.flush()
    stats = eng.stats()
    writes = sum(1 for row in eng.device.request_log if row[1] == "write")
    assert stats["device"]["pages_written"] == writes
    assert stats["io"]["user_sectors_written"] == 6 * SPP


def device_timing(dev):
    return (dev.device_stats(), dev.now_us, list(dev.bus_free_at),
            list(dev.read_queue_free_at), list(dev.bank_free_at))


def write_lpns(eng):
    for lpn in range(50):
        eng.write_sector(lpn * SPP, sector_payload(("before", lpn), SECTOR))
    eng.flush()


def age(eng):
    inject_aging(eng, AgingSpec(free_mean=8, free_spread=2, free_min=2,
                                valid_mean=3, valid_spread=2, valid_max=6,
                                seed=9))


# a setup, then a check of what it left that must find something to check
CHECKS = {
    "deep audit": (write_lpns, lambda eng: eng.audit(deep=True)["mapped"]),
    "aged read check": (age, lambda eng: aged_read_check(eng, sample=32)),
}


@pytest.mark.parametrize("check", CHECKS)
def test_a_check_leaves_the_device_and_the_next_run_as_it_found_them(check):
    """A deep audit and `aged_read_check` look pages up with `peek_page`:
    no device counter or clock moves, so a run after the check ends at the
    virtual time it ends at without it."""
    setup, run_check = CHECKS[check]
    ends = []
    for checked in (False, True):
        eng = tiny_engine()
        setup(eng)
        before = device_timing(eng.device)
        if checked:
            assert run_check(eng) > 0
            assert device_timing(eng.device) == before
        for i in range(200):
            eng.write_sector((i % 60) * SPP + 1, sector_payload(i, SECTOR))
        eng.flush()
        ends.append((eng.sched.now, device_timing(eng.device)))
        eng.abort()
    assert ends[0] == ends[1]


def test_deterministic_restart_cycle(tmp_path):
    image = str(tmp_path / "flash.img")
    for cycle in range(3):
        eng = tiny_engine(image_path=image)
        for lsn in range(cycle * SPP, (cycle + 1) * SPP):
            eng.write_sector(lsn, sector_payload(("c", lsn), SECTOR))
        eng.audit()
        eng.shutdown(clean=True)
    eng = tiny_engine(image_path=image)
    for cycle in range(3):
        for lsn in range(cycle * SPP, (cycle + 1) * SPP):
            assert eng.read_sector(lsn) == sector_payload(("c", lsn), SECTOR)
    eng.shutdown(clean=True)


def _client_mix(t, span, ops, seed=0):
    """Client `t`'s operations on its own sectors `t * span` onward:
    (kind, lsn, data) with kind "write" (synchronous), "async" (submit and
    wait), "read" or "check" (dirty sectors and stats)."""
    rng = random.Random(seed * 4 + t)
    for i in range(ops):
        lsn = t * span + rng.randrange(span)
        roll = rng.random()
        if roll < 0.45:
            yield "write", lsn, sector_payload((t, i), SECTOR)
        elif roll < 0.65:
            yield "async", lsn, sector_payload((t, i, "async"), SECTOR)
        elif roll < 0.95:
            yield "read", lsn, None
        else:
            yield "check", lsn, None


def _shared_engine(seed=0):
    return tiny_engine(policy=GcPolicy(kind="PLLGC", max_gc_threads=2),
                       queues=4, buffers=4, export_ratio=0.6, seed=seed)


def test_interleaved_clients_share_one_engine():
    """Four clients drive one engine on disjoint sector ranges through the
    synchronous and the asynchronous surface while GC collectors run
    underneath. One caller runs their operations in a seeded shuffled
    order, one request in flight at a time."""
    eng = _shared_engine()
    span, ops = 40 * SPP, 400
    shadows = [{} for _ in range(4)]

    def client(t):
        shadow = shadows[t]
        for kind, lsn, data in _client_mix(t, span, ops):
            if kind == "write":
                eng.write_sector(lsn, data)
                shadow[lsn] = data
            elif kind == "async":
                req = eng.submit(IoRequest("write", lsn, data))
                eng.pump(req.done)
                assert req.error is None, req.error
                shadow[lsn] = data
            elif kind == "read":
                assert eng.read_sector(lsn) == shadow.get(lsn, b"\x00" * SECTOR)
            else:
                mine = [s for s in eng.dirty_sectors()
                        if t * span <= s < (t + 1) * span]
                assert set(mine) <= set(shadow)
                assert eng.stats()["io"]["user_sectors_written"] >= len(shadow)
            yield

    clients = [client(t) for t in range(4)]
    order = [t for t in range(4) for _ in range(ops)]
    random.Random(17).shuffle(order)
    for t in order:
        next(clients[t])
    eng.audit(deep=True)
    for shadow in shadows:
        for lsn, data in shadow.items():
            assert eng.read_sector(lsn) == data
    assert eng.gc.stats.blocks_collected > 0
    eng.shutdown(clean=True)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: an evicted page is unfindable while it is programmed, "
    "so a read of its LPN from another queue returns the old mapping"))
def test_concurrent_clients_read_their_own_writes():
    """The interleaved clients' writes and reads as four client actors that
    each wait on every request, so several requests are in flight at once.
    Each client owns its sectors: every read must return its last write."""
    span, ops = 40 * SPP, 400
    stale = []
    for seed in range(10):
        eng = _shared_engine(seed)

        def client(t):
            shadow = {}
            for kind, lsn, data in _client_mix(t, span, ops, seed):
                if kind == "check":
                    continue
                req = (IoRequest("read", lsn) if kind == "read"
                       else IoRequest("write", lsn, data))
                yield eng.io.submit(req)
                assert req.error is None, req.error
                if kind != "read":
                    shadow[lsn] = data
                elif req.result != shadow.get(lsn, b"\x00" * SECTOR):
                    stale.append((seed, t, lsn))

        actors = [eng.sched.spawn(client(t), f"client-{t}") for t in range(4)]
        for actor in actors:
            eng.sched.join(actor)
        eng.shutdown(clean=True)
    assert stale == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: an evicted page is unfindable while it is programmed, "
    "so a read of its LPN from another queue returns the old mapping"))
def test_a_read_while_its_evicted_page_is_programmed_returns_the_write():
    """The shrunk case of a state-machine search: with 2 buffers, writing
    LPN 4 after LPNs 13 and 0 evicts LPN 13's page. A read of LPN 13 from
    another queue while that page is being programmed must return the
    sector written, not zeros."""
    eng = tiny_engine(queues=4, buffers=2)
    data = {lpn: sector_payload(("evicted", lpn), SECTOR) for lpn in (13, 0, 4)}
    eng.write_sector(13 * SPP, data[13])
    eng.write_sector(0, data[0])
    read = IoRequest("read", 13 * SPP)
    program, in_flight = eng.device.write_page, []

    def write_page(addr, page, spare=b"", submit_us=None):
        # submitted in the step that programs LPN 13's page, so it is served
        # before that program completes
        if not in_flight and oob.decode_spare(spare, page)[1] == 13:
            in_flight.append(eng.state.map_lookup(13))
            eng.submit(read)
        return program(addr, page, spare, submit_us)

    eng.device.write_page = write_page
    eng.write_sector(4 * SPP, data[4])
    eng.pump(read.done)
    assert read.error is None and in_flight == [UNMAPPED]
    assert read.result == data[13]


# ---- engine construction leaves the caller's objects alone --------------------

def _reused_config_run(cfg):
    eng = Engine.start(cfg)
    for i in range(600):
        lsn = (i * 7) % (eng.io.num_sectors // 4)
        eng.write_sector(lsn, sector_payload(("reuse", i), eng.io.sector_size))
    eng.flush()
    resolved = (eng.io.params, eng.gc.policy, eng.gc.bands,
                eng.gc.panic_free_blocks)
    stats = eng.stats()
    eng.shutdown(clean=True)
    return resolved, stats


def test_engine_start_resolves_defaults_into_its_own_copies():
    params = EngineParams(num_queues=4, num_buffers=8)
    policy = GcPolicy(kind="PLLGC_ADAPTIVE", max_gc_threads=4)
    cfg = EngineConfig(profile="tiny", io=params, policy=policy, seed=5)
    before = (repr(params), repr(policy))
    (_, _, tiny_bands, tiny_panic), _ = _reused_config_run(cfg)
    assert (repr(params), repr(policy)) == before
    assert tiny_bands == [(0, 1, 4), (2, 2, 2), (3, 3, 1), (4, 4, 1)]
    assert tiny_panic == 1

    # the same objects serve a 64-queue desk8 engine, as fresh ones would
    cfg.profile = "desk8"
    params.num_queues = 64
    before = (repr(params), repr(policy))
    reused = _reused_config_run(cfg)
    assert (repr(params), repr(policy)) == before
    fresh = _reused_config_run(EngineConfig(
        profile="desk8", io=EngineParams(num_queues=64, num_buffers=8),
        policy=GcPolicy(kind="PLLGC_ADAPTIVE", max_gc_threads=4), seed=5))
    assert reused == fresh
    (_, _, desk_bands, desk_panic), _ = reused
    assert desk_bands == [(0, 16, 4), (17, 32, 2), (33, 48, 1), (49, 64, 1)]
    assert desk_panic == 2
