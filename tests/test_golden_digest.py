"""Golden virtual-time digest: refactors must not move the simulated output.

Each scenario reduces a short deterministic run to its virtual-time result
(elapsed microseconds, latency samples, io/gc/device counters, and where the
run ends quiesced, the page map). The SHA-256 of all of them is pinned below.
A change that alters the model on purpose re-pins the digest in its own,
reviewed step; any other change must leave it as it is.

Scenarios: each GC policy on an aged desk8 card, a checkpoint save whose
chain head needs a window block emptied first, and two dirty restarts whose
free-pool repair relocates into other banks and compacts in place. A second
digest covers the paper's 64-bank layout (desk64): writes across all banks,
a clean shutdown and chain load, then a dirty restart whose recovery scan
probes thousands of blocks that were never programmed or erased.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np

from bankftl import bench
from bankftl.checkpoint import window_blocks
from bankftl.engine import Engine, EngineConfig
from bankftl.gc_engine import GcLevel, GcPolicy
from bankftl.io_engine import EngineParams

from conftest import TINY, sector_payload, synth_block, tiny_engine

GOLDEN = "a21bc45567ec6554e83f8e395223b036ebb743210758ba64294be226f64563f4"
GOLDEN_64_BANKS = "df5d62f12d889205e79933c7b7958bd5807d0cba4a818ce332218ceb14c75077"


def _policy_run(kind, seed):
    config = EngineConfig(
        profile="desk8", io=EngineParams(num_queues=16),
        policy=GcPolicy(kind=kind, max_gc_threads=4, activity_window_us=5000),
        levels=[GcLevel(16, 0), GcLevel(12, 16), GcLevel(8, 32)], seed=seed)
    eng = Engine.start(config)
    bench.inject_aging(eng, bench.AgingSpec(
        free_mean=8, free_spread=1.5, free_min=5, valid_mean=36,
        valid_spread=8, valid_max=58, seed=seed + 11))
    spec = bench.WorkloadSpec(num_client_threads=8, region_lpns=1024, rounds=1,
                              pattern="random", think_small_us=200,
                              start_jitter_us=1000, seed=seed)
    report = bench.drive(eng, spec)
    eng.shutdown(clean=True)
    return {"elapsed_us": report.elapsed_us, "samples": report.samples,
            "counters": report.counters}


def _quiesced_result(eng):
    """Counters, clock and page map of an engine whose actors are idle."""
    device = asdict(eng.device.device_stats())
    # the digests were pinned while the device also counted
    # completions_delivered, which always equalled requests_accepted
    device["completions_delivered"] = device["requests_accepted"]
    return {"stats": eng.stats(), "now": eng.sched.now, "device": device,
            "map": hashlib.sha256(eng.state.map.tobytes()).hexdigest()}


def _head_relocation_run():
    eng = tiny_engine()
    for bank in range(TINY.num_banks):
        for block in window_blocks(TINY, 4):
            base = 1 + bank * 100 + block * 6
            synth_block(eng, bank, block, list(range(base, base + 3)), fill_pages=5)
    head = eng.run(eng.ckpt.save())
    out = _quiesced_result(eng)
    out["head"] = list(head)
    eng.shutdown(clean=False)
    return out


def _fill_bank(eng, bank, live_per_block, lpn):
    """Write every free block of the bank fully: `live_per_block` live pages,
    the rest stale. Returns the next unused lpn."""
    for block in map(int, np.flatnonzero(eng.state.free_bits[bank])):
        synth_block(eng, bank, block, list(range(lpn, lpn + live_per_block)))
        lpn += live_per_block
    return lpn


def _repair_run(tmp_path, name, banks):
    image = str(tmp_path / f"{name}.img")
    eng = tiny_engine(image_path=image)
    lpn = 0
    for bank in banks:
        lpn = _fill_bank(eng, bank, 3, lpn)
    eng.shutdown(clean=False)
    eng = tiny_engine(image_path=image)
    out = _quiesced_result(eng)
    out["recovered_via"] = eng.recovered_via
    eng.shutdown(clean=False)
    return out


def test_golden_virtual_time_digest(tmp_path):
    result = {
        "policies": {kind: _policy_run(kind, seed=3)
                     for kind in ("NPGC", "PLLGC", "PLLGC_ADAPTIVE")},
        "head_relocation": _head_relocation_run(),
        "repair_starved_bank": _repair_run(tmp_path, "starved", [0]),
        "repair_full_card": _repair_run(tmp_path, "full", range(TINY.num_banks)),
    }
    blob = json.dumps(result, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN


def _write_sectors(eng, lsns, tag):
    size = eng.device.geometry.read_unit
    for lsn in lsns:
        eng.write_sector(lsn, sector_payload((tag, lsn), size))
    eng.flush()


def test_golden_digest_64_banks(tmp_path):
    image = str(tmp_path / "desk64.img")
    eng = tiny_engine(profile="desk64", queues=8, buffers=16, image_path=image)
    spp = eng.device.geometry.sectors_per_page
    # three pages' worth of sectors per bank: every bank programs pages
    _write_sectors(eng, range(3 * 64 * spp), "first")
    result = {"written": _quiesced_result(eng)}
    result["written"]["banks_programmed"] = sum(
        eng.state.banks[bank].valid_pages > 0 for bank in range(64))
    eng.shutdown(clean=True)
    eng = tiny_engine(profile="desk64", queues=8, buffers=16, image_path=image)
    result["chain_load"] = _quiesced_result(eng)
    result["chain_load"]["recovered_via"] = eng.recovered_via
    _write_sectors(eng, range(0, 3 * 64 * spp, 3), "second")
    eng.shutdown(clean=False)
    eng = tiny_engine(profile="desk64", queues=8, buffers=16, image_path=image)
    result["dirty_restart"] = _quiesced_result(eng)
    result["dirty_restart"]["recovered_via"] = eng.recovered_via
    result["dirty_restart"]["scan_reads"] = eng.ckpt.scan_reads
    eng.shutdown(clean=False)
    assert result["written"]["banks_programmed"] == 64
    assert result["chain_load"]["recovered_via"] == "checkpoint"
    assert result["dirty_restart"]["recovered_via"] == "recovery_scan"
    assert eng.ckpt.scan_reads > eng.device.geometry.total_blocks
    blob = json.dumps(result, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_64_BANKS
