"""The GC victim index kept by `FtlState` against the numpy rule it replaced.

`select_victim` reads per-bank buckets of occupied blocks keyed by valid
count. The rule it must reproduce is the one below (`numpy_victim`): among
the bank's occupied blocks other than its open block, those at or below the
level's valid threshold, the fewest valid pages, ties to the lowest block.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bankftl import bench
from bankftl.checkpoint import restore_state, serialize_state
from bankftl.engine import Engine, EngineConfig
from bankftl.errors import AuditError
from bankftl.ftl_state import UNMAPPED, FtlState
from bankftl.gc_engine import GcController, GcLevel, GcPolicy
from bankftl.io_engine import EngineParams
from bankftl.sched import CorePool, Scheduler
from bankftl.sim_flash import PROFILES, SimFlashDevice

from conftest import TINY


def numpy_victim(state, bank, limit):
    """The reference rule: argmin of valid counts over the eligible blocks."""
    g = state.geometry
    lo = bank * g.blocks_per_bank
    counts = state.valid_count[lo:lo + g.blocks_per_bank]
    occupied = ~state.free_bits[bank] & ~state.bad_bits[bank]
    current = state.banks[bank].current_block
    if current is not None:
        occupied = occupied.copy()
        occupied[current] = False
    candidates = np.flatnonzero(occupied & (counts <= limit))
    if candidates.size == 0:
        return None
    return int(candidates[np.argmin(counts[candidates])])


def every_threshold(geometry):
    """One level per valid threshold 0..pages_per_block, so that level i
    collects blocks with at most i valid pages."""
    return [GcLevel(0, v) for v in range(geometry.pages_per_block + 1)]


def collector(state):
    g = state.geometry
    sched = Scheduler(0)
    return GcController(sched, SimFlashDevice(g), state, GcPolicy(kind="NPGC"),
                        CorePool(sched, 1), every_threshold(g))


def check_every_level(gc):
    """select_victim equals the rule on every bank at every threshold;
    returns how often the open block was alone in the bucket the rule
    would otherwise have taken."""
    state = gc.state
    g = state.geometry
    lone_current = 0
    for bank in range(g.num_banks):
        current = state.banks[bank].current_block
        for limit in range(g.pages_per_block + 1):
            want = numpy_victim(state, bank, limit)
            assert gc.select_victim(bank, limit) == want, (bank, limit)
        if current is not None:
            count = int(state.valid_count[bank * g.blocks_per_bank + current])
            if state.buckets[bank][count] == 1 << current:
                lone_current += 1
    return lone_current


class Workload:
    """Random table traffic through FtlState's own methods: host writes
    (open and retire blocks, remap, invalidate the old copy), trims, blocks
    taken without a write, bank-local collection of a block and release."""

    def __init__(self, state, rng):
        self.state = state
        self.rng = rng
        self.next_lpn = 0

    def write(self, bank):
        state = self.state
        ppn = state.alloc_page_in_bank(bank)
        if ppn is None:
            return
        lpn = self.rng.randrange(min(state.num_lpns, 4 * state.geometry.pages_per_block))
        old = state.map_update_locked(lpn, ppn)
        state.mark_valid(ppn)
        if old != UNMAPPED:
            state.mark_invalid(old)

    def trim(self):
        state = self.state
        mapped = np.flatnonzero(state.map != UNMAPPED)
        if mapped.size:
            lpn = int(mapped[self.rng.randrange(mapped.size)])
            state.mark_invalid(state.map_update_locked(lpn, UNMAPPED))

    def collect(self, bank):
        """Move the rule's victim's valid pages within the bank, release it."""
        state = self.state
        g = state.geometry
        block = numpy_victim(state, bank, g.pages_per_block)
        if block is None:
            return
        gblock = bank * g.blocks_per_bank + block
        for page in np.flatnonzero(state.valid_bits[gblock]).tolist():
            old = g.ppn(bank, block, page)
            new = state.alloc_page_in_bank(bank)
            if new is None:
                return
            lpn = int(np.flatnonzero(state.map == old)[0])
            assert state.map_update_if(lpn, old, new)
            state.mark_valid(new)
            state.mark_invalid(old)
        state.release_block(bank, block)

    def step(self):
        state = self.state
        g = state.geometry
        bank = self.rng.randrange(g.num_banks)
        op = self.rng.random()
        if op < 0.55:
            self.write(bank)
        elif op < 0.65:
            self.trim()
        elif op < 0.72:
            if state.banks[bank].free_blocks > 1:
                state.alloc_free_block(bank)
        elif op < 0.78:
            state.alloc_specific_block(bank, self.rng.randrange(g.blocks_per_bank))
        elif op < 0.97:
            self.collect(bank)
        else:
            # idempotent marks change nothing
            ppn = self.rng.randrange(g.total_pages)
            block, page = divmod(ppn, g.pages_per_block)
            if state.valid_bits[block, page]:
                state.mark_valid(ppn)
            else:
                state.mark_invalid(ppn)


def checkpoint_roundtrip(state, bad_blocks):
    clone = FtlState(state.geometry, 8, 0.875, bad_blocks)
    restore_state(clone, serialize_state(state))
    return clone


@pytest.mark.parametrize("profile,steps", [("tiny", 1500), ("desk8", 600)])
def test_index_matches_numpy_rule_under_random_traffic(profile, steps):
    g = PROFILES[profile]
    bad_blocks = [(0, 3), (1, g.blocks_per_bank - 1)]
    rng = random.Random(profile)
    state = FtlState(g, 8, 0.875, bad_blocks)
    gc = collector(state)
    work = Workload(state, rng)
    lone_current = 0
    for i in range(steps):
        work.step()
        if i % 97 == 96:
            state = work.state = gc.state = checkpoint_roundtrip(state, bad_blocks)
        lone_current += check_every_level(gc)
        if i % 50 == 0:
            state.audit()
    state.audit()
    assert lone_current > 0           # the open block alone in its bucket
    assert state.mark_invalid_total > 0


def test_open_block_alone_in_its_bucket_is_passed_over():
    state = FtlState(TINY, 8, 0.875)
    gc = collector(state)
    assert state.alloc_specific_block(0, 5)
    for page, lpn in enumerate((10, 11)):
        ppn = TINY.ppn(0, 5, page)
        state.map_update_locked(lpn, ppn)
        state.mark_valid(ppn)
    state.alloc_page_in_bank(0)                   # opens block 0, 0 valid
    assert state.banks[0].current_block == 0
    assert state.buckets[0][0] == 1 << 0          # the open block, alone
    assert [gc.select_victim(0, v) for v in range(4)] == [None, None, 5, 5]
    assert state.alloc_specific_block(0, 9)       # a second 0-valid block
    assert [gc.select_victim(0, v) for v in range(3)] == [9, 9, 9]
    state.audit()


def test_recount_indexes_only_occupied_blocks():
    state = FtlState(PROFILES["card512"], 8, 0.875)
    assert state.bucket_bits == [0] * 64
    state.free_bits[63, [7, 4000]] = False
    state.valid_count[63 * 4096 + 4000] = 0
    state.recount()
    assert state.banks[63].free_blocks == 4094
    assert state.buckets[63][0] == (1 << 7) | (1 << 4000)
    assert state.bucket_bits[63] == 1
    assert sum(state.bucket_bits) == 1


def test_audit_catches_an_index_that_missed_a_move(monkeypatch):
    state = FtlState(TINY, 8, 0.875)
    block = state.alloc_free_block(1)
    ppn = TINY.ppn(1, block, 0)
    state.map_update_locked(3, ppn)
    state.mark_valid(ppn)
    state.audit()
    # mutant: mark_invalid without its bucket move
    with monkeypatch.context() as patch:
        patch.setattr(state, "_rebucket", lambda *args: None)
        state.mark_invalid(state.map_update_locked(3, UNMAPPED))
    with pytest.raises(AuditError, match="victim index"):
        state.audit()
    state.recount()
    state.audit()


def checked_run(kind, seed):
    """An aged desk8 card under `kind`, every select_victim answer compared
    with the rule in the step it is made. Returns (answers, victims)."""
    config = EngineConfig(
        profile="desk8", io=EngineParams(num_queues=16),
        policy=GcPolicy(kind=kind, max_gc_threads=4, activity_window_us=5000),
        levels=[GcLevel(16, 0), GcLevel(12, 16), GcLevel(8, 32)], seed=seed)
    eng = Engine.start(config)
    bench.inject_aging(eng, bench.AgingSpec(
        free_mean=8, free_spread=1.5, free_min=5, valid_mean=36,
        valid_spread=8, valid_max=58, seed=seed + 11))
    gc, select = eng.gc, eng.gc.select_victim
    seen = {"answers": 0, "victims": 0}

    def checked(bank, level):
        got = select(bank, level)
        assert got == numpy_victim(eng.state, bank, gc.levels[level].valid_threshold)
        seen["answers"] += 1
        seen["victims"] += got is not None
        return got
    gc.select_victim = checked
    bench.drive(eng, bench.WorkloadSpec(
        num_client_threads=8, region_lpns=1024, rounds=1, pattern="random",
        think_small_us=200, start_jitter_us=1000, seed=seed))
    eng.shutdown(clean=True)
    eng.state.audit()
    return seen["answers"], seen["victims"]


@pytest.mark.parametrize("kind", ["PLLGC_ADAPTIVE", "NPGC"])
def test_every_answer_of_a_run_matches_the_rule(kind):
    answers, victims = checked_run(kind, seed=5)
    assert victims > 0
    assert answers > victims


# ---- the index and the injectivity check against np.unique ----------------

def unique_index(state):
    """The victim index as built with `np.unique`: the reference for the
    sort-and-compare build in `FtlState._index_from_arrays`."""
    g = state.geometry
    width = g.pages_per_block + 1
    buckets = [[0] * width for _ in range(g.num_banks)]
    bucket_bits = [0] * g.num_banks
    occupied = np.flatnonzero(~(state.free_bits | state.bad_bits))
    banks, blocks = np.divmod(occupied, g.blocks_per_bank)
    keys, group = np.unique(banks * width + state.valid_count[occupied],
                            return_inverse=True)
    members = np.zeros((keys.size, g.blocks_per_bank), dtype=bool)
    members[group, blocks] = True
    packed = np.packbits(members, axis=1, bitorder="little")
    for key, row in zip(keys.tolist(), packed):
        bank, count = divmod(key, width)
        buckets[bank][count] = int.from_bytes(row.tobytes(), "little")
        bucket_bits[bank] |= 1 << count
    return buckets, bucket_bits


def audit_finds_map_injective(state):
    try:
        state.audit()
    except AuditError as exc:
        return "map is not injective" not in str(exc)
    return True


def occupancy_case(case, rng):
    g = PROFILES["desk8"]
    state = FtlState(g, 8, 0.875, bad_blocks=[(2, 5), (7, 63)])
    occupied = {"none": np.zeros(g.total_blocks, dtype=bool),
                "one": np.arange(g.total_blocks) == 77,
                "every": np.ones(g.total_blocks, dtype=bool)}.get(case)
    if occupied is None:
        occupied = np.array([rng.random() < 0.6 for _ in range(g.total_blocks)])
    state.free_bits[:] = ~occupied.reshape(state.free_bits.shape)
    state.free_bits[state.bad_bits] = False
    state.valid_count[:] = [rng.randrange(g.pages_per_block + 1)
                            for _ in range(g.total_blocks)]
    ppns = rng.sample(range(g.total_pages), 500)
    if case == "duplicate":
        ppns[rng.randrange(1, 500)] = ppns[0]
    state.map[rng.sample(range(state.num_lpns), 500)] = ppns
    state.recount()
    return state


@pytest.mark.parametrize("case", ["none", "one", "every", "random",
                                  "duplicate"])
def test_index_and_injectivity_equal_the_unique_reference(case):
    rng = random.Random(case)
    for _ in range(3):
        state = occupancy_case(case, rng)
        assert (state.buckets, state.bucket_bits) == unique_index(state)
        mapped = state.map[state.map != UNMAPPED]
        assert audit_finds_map_injective(state) == (
            np.unique(mapped).size == mapped.size)
        assert audit_finds_map_injective(state) == (case != "duplicate")
        if case == "every":
            assert sum(map(int.bit_count, state.bucket_bits)) > 8


AGE_AND_AUDIT = """
import sys
from bankftl import bench
from bankftl.engine import Engine, EngineConfig
for name in ("npgc-vs-pllgc", "adaptive-vs-pllgc"):
    eng = Engine.start(EngineConfig(profile="desk8"))
    bench.inject_aging(eng, bench.preset(name, seed=1).aging)
    eng.state.recount()
    eng.state.audit()
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_aging_recount_and_audit_do_not_import_numpy_ma():
    """`numpy.ma` costs a card's start about 10 ms on import and nothing in
    the engine uses it, so aging, the victim index and the audit keep out
    of it (`np.unique` imports it)."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", AGE_AND_AUDIT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
