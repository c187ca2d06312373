import random
import sys
import threading

import pytest

from bankftl.engine import Engine, EngineConfig
from bankftl.errors import ConfigurationError, EngineStateError
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


def test_os_threads_share_one_engine():
    """The pump lock is the one boundary for OS threads: four of them drive
    one engine on disjoint sector ranges through the synchronous and the
    asynchronous surface while GC collectors run underneath."""
    eng = tiny_engine(policy=GcPolicy(kind="PLLGC", max_gc_threads=2),
                      queues=4, buffers=4, export_ratio=0.6)
    span = 40 * SPP
    shadows = [{} for _ in range(4)]
    errors = []

    def client(t):
        rng = random.Random(t)
        shadow = shadows[t]
        try:
            for i in range(400):
                lsn = t * span + rng.randrange(span)
                roll = rng.random()
                if roll < 0.45:
                    data = sector_payload((t, i), SECTOR)
                    eng.write_sector(lsn, data)
                    shadow[lsn] = data
                elif roll < 0.65:
                    data = sector_payload((t, i, "async"), SECTOR)
                    req = eng.submit(IoRequest("write", lsn, data))
                    eng.pump(req.done)
                    assert req.error is None, req.error
                    shadow[lsn] = data
                elif roll < 0.95:
                    assert eng.read_sector(lsn) == shadow.get(lsn, b"\x00" * SECTOR)
                else:
                    mine = [s for s in eng.dirty_sectors()
                            if t * span <= s < (t + 1) * span]
                    assert set(mine) <= set(shadow)
                    assert eng.stats()["io"]["user_sectors_written"] >= len(shadow)
        except Exception as exc:            # reported by the main thread
            errors.append((t, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    eng.audit(deep=True)
    for shadow in shadows:
        for lsn, data in shadow.items():
            assert eng.read_sector(lsn) == data
    assert eng.gc.stats.blocks_collected > 0
    eng.shutdown(clean=True)


# ---- engine construction leaves the caller's objects alone --------------------

def _reused_config_run(cfg):
    eng = Engine.start(cfg)
    for i in range(600):
        lsn = (i * 7) % (eng.io.num_sectors // 4)
        eng.write_sector(lsn, sector_payload(("reuse", i), eng.io.sector_size))
    eng.flush()
    resolved = (eng.io.params, eng.gc.policy)
    stats = eng.stats()
    eng.shutdown(clean=True)
    return resolved, stats


def test_engine_start_resolves_defaults_into_its_own_copies():
    params = EngineParams(num_queues=4, num_buffers=8)
    policy = GcPolicy(kind="PLLGC_ADAPTIVE", max_gc_threads=4)
    cfg = EngineConfig(profile="tiny", io=params, policy=policy, seed=5)
    before = (repr(params), repr(policy))
    (tiny_params, tiny_policy), _ = _reused_config_run(cfg)
    assert (repr(params), repr(policy)) == before
    assert tiny_policy.adaptive_map == [(0, 1, 4), (2, 2, 2), (3, 3, 1), (4, 4, 1)]
    assert tiny_policy.panic_free_blocks == 1

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
    (desk_params, desk_policy), _ = reused
    assert desk_policy.adaptive_map == [(0, 16, 4), (17, 32, 2), (33, 48, 1),
                                        (49, 64, 1)]
    assert desk_policy.panic_free_blocks == 2
