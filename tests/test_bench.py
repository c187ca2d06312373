import hashlib
import json

import numpy as np
import pytest

from bankftl.bench import (AgingSpec, RunReport, WorkloadSpec, aged_read_check,
                           drive, emit_report, inject_aging, preset, run,
                           run_preset)
from bankftl.engine import Engine, EngineConfig
from bankftl.errors import AuditError, ConfigurationError, EngineStateError
from bankftl.ftl_state import UNMAPPED
from bankftl.gc_engine import GcPolicy
from bankftl.io_engine import EngineParams, IoEngine
from bankftl.oob import TYPE_DATA, encode_spare

from conftest import TINY, tiny_engine

SPP = TINY.sectors_per_page


def small_spec(**kw):
    base = dict(num_client_threads=2, region_lpns=32, rounds=2,
                pattern="sequential", seed=5)
    base.update(kw)
    return WorkloadSpec(**base)


def small_config(seed=5):
    return EngineConfig(profile="tiny",
                        io=EngineParams(num_queues=4, num_buffers=8),
                        policy=GcPolicy(kind="PLLGC", max_gc_threads=1),
                        seed=seed)


def test_run_deterministic_under_fixed_seed():
    reports = [run(small_spec(), small_config()) for _ in range(2)]
    a, b = reports
    assert a.elapsed_us == b.elapsed_us
    assert a.samples == b.samples
    assert a.counters["io"] == b.counters["io"]
    assert a.blocks_collected == b.blocks_collected


def test_run_accounting_matches_spec_totals():
    spec = small_spec()
    report = run(spec, small_config())
    per = spec.region_lpns // spec.num_client_threads
    expected = per * spec.rounds * TINY.page_size * spec.num_client_threads
    assert report.user_bytes == expected
    assert len(report.samples) == expected // TINY.page_size
    assert report.errors == 0
    # the unflushed buffer tail keeps WA fractionally below 1 at this tiny
    # scale (no GC churn); the full-regime >=1 check lives in acceptance
    assert report.write_amplification > 0.8


def test_empty_workload_empty_report():
    report = run(small_spec(region_lpns=0, rounds=0), small_config())
    assert report.samples == []
    assert report.elapsed_us == 0
    assert report.user_bytes == 0


def test_random_pattern_stays_in_region():
    eng = tiny_engine()
    spec = small_spec(pattern="random", region_lpns=16, rounds=3)
    report = drive(eng, spec)
    mapped = np.flatnonzero(eng.state.map != UNMAPPED)
    assert len(report.samples) == 16 // 2 * 3 * 2
    assert all(lpn < 16 for lpn in mapped)
    eng.shutdown(clean=True)


def test_think_time_extends_elapsed():
    quick = run(small_spec(), small_config())
    slow = run(small_spec(think_small_us=1000), small_config())
    pages_per_client = 16 * 2
    assert slow.elapsed_us >= quick.elapsed_us + 1000 * pages_per_client


def test_aging_matches_distributions_and_audits():
    eng = tiny_engine(export_ratio=0.875)
    spec = AgingSpec(free_mean=6, free_spread=1.5, free_min=2,
                     valid_mean=4, valid_spread=2, valid_max=7, seed=3)
    info = inject_aging(eng, spec)
    frees = [b.free_blocks for b in eng.state.banks]
    assert abs(np.mean(frees) - 6) <= 2.0          # sampled mean near target
    occupied = (~eng.state.free_bits).sum() - eng.state.bad_bits.sum()
    assert info["occupied_blocks"] == int(occupied)
    counts = eng.state.valid_count[eng.state.valid_count > 0]
    if counts.size:
        assert counts.max() <= 7
    eng.audit(deep=True)
    assert aged_read_check(eng, sample=32) > 0
    eng.shutdown(clean=True)


@pytest.mark.parametrize("garble", ["spare", "seq"])
def test_aged_read_check_checks_each_sampled_spare(garble):
    eng = tiny_engine()
    inject_aging(eng, AgingSpec(free_mean=8, free_spread=2, free_min=2,
                                valid_mean=3, valid_spread=2, valid_max=6,
                                seed=9))
    assert aged_read_check(eng, sample=1) == 1     # samples the first mapped lpn
    lpn = int(np.flatnonzero(eng.state.map != UNMAPPED)[0])
    addr = TINY.split_ppn(int(eng.state.map[lpn]))
    if garble == "spare":
        eng.device.corrupt_spare(addr)
    else:
        # a spare whose CRC holds but names another sequence number
        blk = eng.device._banks[addr.bank][addr.block]
        data, spare, _ = eng.device.read_page(addr, want_spare=True)
        blk.spares[addr.page] = encode_spare(TYPE_DATA, lpn, 0, data)
    with pytest.raises(AuditError, match=f"aged lpn {lpn} has a spare"):
        aged_read_check(eng, sample=1)
    eng.abort()


def test_aging_all_free_equals_fresh():
    eng = tiny_engine()
    spec = AgingSpec(free_mean=TINY.blocks_per_bank, free_spread=0,
                     free_min=TINY.blocks_per_bank, seed=1)
    info = inject_aging(eng, spec)
    assert info == {"mapped": 0, "occupied_blocks": 0}
    assert int(eng.state.free_bits.sum()) == TINY.total_blocks
    eng.shutdown(clean=True)


def test_aging_requires_empty_engine():
    eng = tiny_engine()
    eng.write_sector(0, b"\x01" * TINY.read_unit)
    eng.flush()
    with pytest.raises(EngineStateError):
        inject_aging(eng, AgingSpec())
    eng.shutdown(clean=True)


def test_aged_state_survives_recovery_scan():
    eng = tiny_engine()
    inject_aging(eng, AgingSpec(free_mean=8, free_spread=2, free_min=2,
                                valid_mean=3, valid_spread=2, valid_max=6, seed=9))
    saved_map = eng.state.map.copy()
    device = eng.device
    eng.shutdown(clean=False)
    from bankftl.checkpoint import Checkpointer
    from bankftl.ftl_state import FtlState
    from bankftl.sched import Scheduler
    sched = Scheduler(0)
    state = FtlState(TINY, 8, 0.875)
    scanner = Checkpointer(sched, device, state, 4)
    sched.join(sched.spawn(scanner.recovery_scan(), "scan"))
    assert np.array_equal(state.map, saved_map)


def test_aging_with_stale_pages_but_no_valid_one_is_refused_before_writing():
    eng = tiny_engine(profile="desk8")
    spec = AgingSpec(valid_mean=0, valid_spread=0, free_mean=40, seed=3)
    with pytest.raises(ConfigurationError, match="no valid page"):
        inject_aging(eng, spec)
    assert eng.device.device_stats().pages_written == 0
    assert eng.state.free_bits.all()
    eng.shutdown(clean=True)


@pytest.mark.parametrize("fields, named", [
    (dict(valid_mean=70, valid_spread=0, valid_max=100), "valid_max"),
    (dict(valid_min=5, valid_max=3), "valid_min"),
    (dict(valid_min=8), "valid_min"),
    (dict(valid_max=-1), "valid_max"),
    (dict(free_mean=-1), "free_mean"),
    (dict(free_spread=-0.5), "free_spread"),
    (dict(free_min=-1), "free_min"),
    (dict(valid_mean=-2), "valid_mean"),
    (dict(valid_spread=-1), "valid_spread"),
    (dict(valid_min=-1), "valid_min"),
])
def test_aging_spec_out_of_bounds_is_refused_naming_the_field(fields, named):
    eng = tiny_engine()
    with pytest.raises(ConfigurationError, match=named):
        inject_aging(eng, AgingSpec(**{"free_mean": 8, **fields}))
    assert eng.device.device_stats().pages_written == 0
    eng.shutdown(clean=True)


# SHA-256 of what aging leaves on the card and in the tables: the flash image
# (every block's pages, spares, prefix and erase count, the device counters
# and clock), the map, the valid bits and counts, the free bits and the
# sequence counter
AGED_CARD_PINS = {
    "npgc-vs-pllgc":
        "724e11fc4156e1a874bee59895de7bed982d8d45947f6c62e6264e5e0923f271",
    "adaptive-vs-pllgc":
        "cdebfa3ccadfc1975dcdc3f733a8d86b3ead2eb9a3807609f1c4817bfeca100b",
    "tiny":
        "3a42777034607373e359b48a0a50eea19a21410253a66006bfdcf7ef43aacf33",
}


def _aged_card_digest(eng, aging, image):
    inject_aging(eng, aging)
    eng.device.save_image(image)
    h = hashlib.sha256()
    with open(image, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    s = eng.state
    for table in (s.map, s.valid_bits, s.valid_count, s.free_bits):
        h.update(table.tobytes())
    h.update(str(s.sequence).encode())
    eng.abort()
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(AGED_CARD_PINS))
def test_aged_card_is_pinned(tmp_path, case):
    if case == "tiny":
        eng = tiny_engine()
        aging = AgingSpec(free_mean=8, free_spread=2, free_min=2, valid_mean=3,
                          valid_spread=2, valid_max=6, seed=9)
    else:
        bundle = preset(case, seed=1)
        eng = Engine.start(EngineConfig(profile=bundle.profile, io=bundle.io,
                                        policy=bundle.policy,
                                        levels=bundle.levels, seed=1))
        aging = bundle.aging
    digest = _aged_card_digest(eng, aging, str(tmp_path / "aged.img"))
    assert digest == AGED_CARD_PINS[case]


def test_normalization_floor_and_ratios():
    report = RunReport(per_thread_avg_us={0: 100.0, 1: 150.0, 2: 200.0})
    norm = report.normalized_thread_latencies()
    assert norm == {0: 1.0, 1: 1.5, 2: 2.0}
    assert min(norm.values()) == 1.0


def test_emit_report_files(tmp_path):
    report = RunReport(policy="PLLGC", preset="demo", seed=1, elapsed_us=1000,
                       samples=[[0, 2048, 250, 0], [1, 2048, 2500, 1]],
                       per_thread_avg_us={0: 250.0, 1: 2500.0},
                       blocks_collected=3, write_amplification=1.25,
                       user_bytes=4096, over_threshold={"2000": 1})
    paths = emit_report(report, tmp_path / "out")
    latency = (tmp_path / "out" / "latency.csv").read_text().splitlines()
    assert latency[0] == "request_id,bytes,latency_us,thread"
    assert len(latency) == 3
    threads = (tmp_path / "out" / "thread_latency.csv").read_text().splitlines()
    assert threads[1].startswith("0,250.000,1.000000")
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "write_amplification: 1.2500" in summary
    assert "samples_over_2000us: 1" in summary
    loaded = RunReport.from_json(paths["json"])
    assert loaded.per_thread_avg_us == report.per_thread_avg_us
    assert loaded.samples == report.samples


def test_emit_empty_report_headers_only(tmp_path):
    paths = emit_report(RunReport(), tmp_path / "empty")
    assert (tmp_path / "empty" / "latency.csv").read_text() == \
        "request_id,bytes,latency_us,thread\n"
    assert (tmp_path / "empty" / "thread_latency.csv").read_text() == \
        "thread,avg_latency_us,normalized\n"


def test_report_wa_cross_check_against_device():
    eng = tiny_engine()
    spec = small_spec()
    report = drive(eng, spec)
    dev_pages = report.counters["device"]["pages_written"]
    user_pages = report.counters["io"]["user_sectors_written"] / SPP
    assert report.write_amplification == pytest.approx(dev_pages / user_pages)
    eng.shutdown(clean=True)


def test_preset_bundles_wellformed():
    for name in ("npgc-vs-pllgc", "adaptive-vs-pllgc", "queue-scaling",
                 "init-scan"):
        bundle = preset(name, seed=3)
        assert bundle.workload.seed == 3
        assert bundle.profile in ("desk8", "desk64")
        if bundle.alt_policy is not None:
            assert bundle.alt_policy.kind != bundle.policy.kind
    b = preset("npgc-vs-pllgc")
    assert b.policy.max_gc_threads == 1
    assert b.alt_policy.kind == "NPGC"
    b = preset("adaptive-vs-pllgc")
    assert b.policy.max_gc_threads == 8
    assert b.workload.num_client_threads == 128
    with pytest.raises(ConfigurationError):
        preset("nope")


def test_a_client_write_checks_its_address_once(monkeypatch):
    """A client queues the sector a run stops at with the same call: the
    address and engine state are checked once per `write_run`, whether the
    run was served to its end or stopped."""
    calls = {"write_run": 0, "_check": 0, "queued": 0}
    write_run, check = IoEngine.write_run, IoEngine._check

    def counted_run(self, lsn, data):
        calls["write_run"] += 1
        req = write_run(self, lsn, data)
        calls["queued"] += req is not None
        return req

    def counted_check(self, lsn):
        calls["_check"] += 1
        return check(self, lsn)

    monkeypatch.setattr(IoEngine, "write_run", counted_run)
    monkeypatch.setattr(IoEngine, "_check", counted_check)
    eng = Engine.start(small_config())
    report = drive(eng, small_spec(num_client_threads=1))
    eng.shutdown(clean=True)
    assert report.errors == 0
    assert calls["_check"] == calls["write_run"]
    assert 0 < calls["queued"] < calls["write_run"]
