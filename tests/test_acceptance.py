"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Run with `pytest tests/test_acceptance.py -v -s`.
Every test here carries the `acceptance` marker, so a quick loop over the
rest of the suite is `pytest -m "not acceptance"`."""

import random
import time

import numpy as np
import pytest

from bankftl.bench import preset, run_init_scan, run_preset, run_queue_scaling
from bankftl.engine import Engine, EngineConfig
from bankftl.gc_engine import GcPolicy
from bankftl.io_engine import EngineParams

from conftest import TINY, sector_payload, synth_block, tiny_engine
from harness import run_integrity

pytestmark = pytest.mark.acceptance

SEEDS = (1, 2, 3, 4, 5)


def _verdict(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_npgc_vs_pllgc():
    """Aged overwrite preset: PLLGC beats NPGC on elapsed simulated time in
    >=4/5 seeds, NPGC's >2ms samples >= 2x PLLGC's, GC blocks within 10%."""
    wins = spikes_ok = blocks_ok = 0
    details = []
    worst_wall = 0.0
    for seed in SEEDS:
        bundle = preset("npgc-vs-pllgc", seed)
        t0 = time.time()
        npgc = run_preset("npgc-vs-pllgc", seed=seed, policy=bundle.alt_policy)
        wall_n = time.time() - t0
        t0 = time.time()
        pllgc = run_preset("npgc-vs-pllgc", seed=seed, policy=bundle.policy)
        worst_wall = max(worst_wall, wall_n, time.time() - t0)
        wins += pllgc.elapsed_us < npgc.elapsed_us
        n_over, p_over = npgc.count_over(2000), pllgc.count_over(2000)
        spikes_ok += (n_over >= 2 * p_over and n_over > 0)
        ratio = npgc.blocks_collected / max(1, pllgc.blocks_collected)
        blocks_ok += abs(ratio - 1.0) <= 0.10
        details.append(f"s{seed}: {npgc.elapsed_us/1e6:.1f}s/{pllgc.elapsed_us/1e6:.1f}s "
                       f"spikes {n_over}/{p_over} blocks {ratio:.3f}")
        assert npgc.write_amplification >= 1.0
        assert pllgc.write_amplification >= 1.0
    ok = wins >= 4 and spikes_ok >= 4 and blocks_ok >= 4 and worst_wall < 120
    _verdict("C1 npgc-vs-pllgc",
             ok, f"elapsed wins {wins}/5, spike-ratio ok {spikes_ok}/5, "
                 f"blocks within 10% {blocks_ok}/5, worst run {worst_wall:.0f}s; "
                 + "; ".join(details))


def test_criterion_2_adaptive_vs_pllgc():
    """Think-time preset: adaptive elapsed <= PLLGC in >=4/5 seeds and its
    per-thread normalized-average-latency max <= PLLGC's in >=4/5."""
    wins = norm_ok = 0
    details = []
    worst_wall = 0.0
    for seed in SEEDS:
        bundle = preset("adaptive-vs-pllgc", seed)
        t0 = time.time()
        pllgc = run_preset("adaptive-vs-pllgc", seed=seed, policy=bundle.alt_policy)
        wall_p = time.time() - t0
        t0 = time.time()
        adaptive = run_preset("adaptive-vs-pllgc", seed=seed, policy=bundle.policy)
        worst_wall = max(worst_wall, wall_p, time.time() - t0)
        p_norm = max(pllgc.normalized_thread_latencies().values())
        a_norm = max(adaptive.normalized_thread_latencies().values())
        wins += adaptive.elapsed_us <= pllgc.elapsed_us
        norm_ok += a_norm <= p_norm
        details.append(f"s{seed}: {pllgc.elapsed_us/1e6:.2f}s/{adaptive.elapsed_us/1e6:.2f}s "
                       f"norm {p_norm:.2f}/{a_norm:.2f}")
    ok = wins >= 4 and norm_ok >= 4 and worst_wall < 180
    _verdict("C2 adaptive-vs-pllgc",
             ok, f"elapsed wins {wins}/5, norm-max wins {norm_ok}/5, "
                 f"worst run {worst_wall:.0f}s; " + "; ".join(details))


def test_criterion_3_queue_scaling():
    """64-bank card: throughput monotone over Q in 1..64 and Q=64 >= 4x Q=1."""
    t0 = time.time()
    rows = run_queue_scaling(seed=0)
    wall = time.time() - t0
    monotone = all(rows[i + 1][1] >= rows[i][1] for i in range(len(rows) - 1))
    speedup = rows[-1][1] / rows[0][1]
    ok = monotone and speedup >= 4.0 and wall < 120
    _verdict("C3 queue-scaling",
             ok, f"monotone={monotone}, q64/q1={speedup:.1f}x, wall {wall:.0f}s, "
                 f"MB/s={[(q, round(m, 1)) for q, m in rows]}")


def test_criterion_4_init_scan_bound():
    """Chained checkpoint load touches the window bound only; a full page
    scan costs >=10x more reads on a half-full card."""
    result = run_init_scan(seed=0)
    bound = 2 * result["k"] * result["num_banks"]
    ok = (result["window_probes"] <= bound
          and result["load_reads"] <= bound + result["chain_reads"]
          and result["ratio"] >= 10.0)
    _verdict("C4 init-scan",
             ok, f"window probes {result['window_probes']} <= {bound}, "
                 f"load reads {result['load_reads']}, scan reads {result['scan_reads']}, "
                 f"ratio {result['ratio']:.1f}x")


def test_criterion_5_integrity_suite(tmp_path):
    """10k+ randomized ops (writes, overwrites, reads, GC at every level,
    daemon ticks, clean and dirty power cycles) against the shadow oracle:
    zero mismatches, every quiescent audit green."""
    t0 = time.time()
    result = run_integrity(10_000, seed=2024, image_path=str(tmp_path / "acc.img"))
    wall = time.time() - t0
    ok = (not result["mismatches"] and result["audits"] >= 20
          and result["levels_seen"] >= {0, 1, 2}
          and result["restarts"]["clean"] >= 3
          and result["restarts"]["dirty"] >= 3
          and wall < 300)
    _verdict("C5 integrity",
             ok, f"{result['ops']} ops, mismatches {len(result['mismatches'])}, "
                 f"audits {result['audits']}, levels {sorted(result['levels_seen'])}, "
                 f"restarts {result['restarts']}, gc blocks {result['gc_blocks']}, "
                 f"wall {wall:.0f}s")


def test_criterion_6_property_suites():
    """Per-module invariant properties, >=100 randomized cases each."""
    # sequential-write prefix invariant (device)
    import test_sim_flash
    cases = 0
    rng = random.Random(77)
    from bankftl.sim_flash import PageAddress, SimFlashDevice
    for _ in range(100):
        dev = SimFlashDevice(TINY)
        highest = {}
        for _ in range(30):
            bank = rng.randrange(TINY.num_banks)
            block = rng.randrange(TINY.blocks_per_bank)
            if rng.random() < 0.3:
                dev.erase_block(bank, block)
                highest[(bank, block)] = 0
            else:
                nxt = highest.get((bank, block), 0)
                if nxt < TINY.pages_per_block:
                    dev.write_page(PageAddress(bank, block, nxt),
                                   b"\x07" * TINY.page_size)
                    highest[(bank, block)] = nxt + 1
        for (bank, block), prefix in highest.items():
            assert dev.written_prefix(bank, block) == prefix
        cases += 1
    assert cases == 100

    # counter-consistency audit (state) against brute-force recounts
    from bankftl.ftl_state import FtlState
    for case in range(100):
        rng_c = random.Random(case)
        state = FtlState(TINY, 8)
        shadow = set()
        for _ in range(60):
            ppn = rng_c.randrange(TINY.total_pages)
            if rng_c.random() < 0.5:
                state.mark_valid(ppn)
                shadow.add(ppn)
            else:
                state.mark_invalid(ppn)
                shadow.discard(ppn)
        assert int(state.valid_count.sum()) == len(shadow)
        assert np.array_equal(state.valid_bits.sum(axis=1), state.valid_count)
        assert (state.mark_valid_total - state.mark_invalid_total == len(shadow))

    # GC valid-page conservation and free-block progress (100 cases, in
    # test_gc_engine's loop) and checkpoint round-trip identity (100 cases)
    import test_checkpoint
    import test_gc_engine
    test_gc_engine.test_free_block_progress_and_conservation_loop()
    test_checkpoint.test_roundtrip_identity_property_loop()

    # recovery-scan vs checkpoint-load differential over randomized workloads
    from bankftl.checkpoint import Checkpointer
    from bankftl.ftl_state import FtlState as FS
    from bankftl.sched import Scheduler
    for case in range(100):
        rng_c = random.Random(1000 + case)
        eng = tiny_engine(seed=case)
        for step in range(rng_c.randrange(5, 40)):
            lsn = rng_c.randrange(48 * TINY.sectors_per_page)
            eng.write_sector(lsn, sector_payload((case, step), TINY.read_unit))
        eng.flush()
        eng.run(eng.ckpt.save())
        device = eng.device
        eng.shutdown(clean=False)
        sched_a = Scheduler(0)
        state_a = FS(TINY, 8)
        scan = Checkpointer(sched_a, device, state_a, 4)
        sched_a.join(sched_a.spawn(scan.recovery_scan(), "scan"))
        sched_b = Scheduler(0)
        state_b = FS(TINY, 8)
        load = Checkpointer(sched_b, device, state_b, 4)
        assert sched_b.join(sched_b.spawn(load.load(), "load"))
        assert np.array_equal(state_a.map, state_b.map)
        assert np.array_equal(state_a.valid_count, state_b.valid_count)
        diff = np.argwhere(state_a.free_bits != state_b.free_bits)
        assert len(diff) <= 1      # the consumed chain head, erased by load

    # write amplification >= 1 over flush-heavy runs (no cache absorption)
    for case in range(100):
        eng = tiny_engine(seed=case, buffers=8)
        base = eng.device.device_stats().pages_written
        spp = TINY.sectors_per_page
        for r in range(2):
            for lpn in range(40):
                for s in range(spp):
                    eng.write_sector(lpn * spp + s,
                                     sector_payload((case, r, lpn, s), TINY.read_unit))
        eng.flush()
        stats = eng.stats()
        assert stats["write_amplification"] >= 1.0
        eng.shutdown(clean=True)

    _verdict("C6 property-suites",
             True, "prefix invariant, counter audits, GC conservation and "
                   "progress, checkpoint round-trip, recovery-vs-load "
                   "differential, WA>=1: 100+ randomized cases each")
