import random

import numpy as np
import pytest

from bankftl.gc_engine import (PANIC_HYSTERESIS, GcController, GcLevel,
                               GcPolicy, default_adaptive_map, default_levels)
from bankftl.oob import TYPE_DATA, decode_spare, encode_spare

from conftest import TINY, ShadowBlockDevice, sector_payload, synth_block, tiny_engine

SECTOR = TINY.read_unit
SPP = TINY.sectors_per_page

# tiny profile: 16 blocks/bank -> default levels (4,0) (2,2) (1,4)
LEVELS = [GcLevel(6, 0), GcLevel(4, 2), GcLevel(2, 4)]


def gc_engine(levels=LEVELS, policy=None):
    return tiny_engine(policy=policy or GcPolicy(kind="NPGC"), levels=levels)


def bank_valid(eng, bank):
    """The bank's valid pages: the sum of its blocks' valid counts."""
    lo = bank * TINY.blocks_per_bank
    return int(eng.state.valid_count[lo:lo + TINY.blocks_per_bank].sum())


def drain_free(eng, bank, leave):
    """Occupy free blocks (fully valid, so never GC victims) until the bank
    has exactly `leave` left."""
    cursor = getattr(eng, "_lpn_cursor", eng.state.num_lpns - 1)
    while eng.state.banks[bank].free_blocks > leave:
        block = int(__import__("numpy").flatnonzero(eng.state.free_bits[bank])[-1])
        lpns = list(range(cursor - TINY.pages_per_block + 1, cursor + 1))
        cursor -= TINY.pages_per_block
        synth_block(eng, bank, block, lpns)
    eng._lpn_cursor = cursor


def open_current(eng, bank):
    """Open the bank's current block legally: allocate and program one
    throwaway stale page (sequence 0, never mapped)."""
    from bankftl.oob import TYPE_DATA, encode_spare
    from bankftl.sim_flash import PageAddress
    g = eng.device.geometry
    ppn = eng.state.alloc_page_in_bank(bank)
    data = b"\x00" * g.page_size
    eng.device.write_page(g.split_ppn(ppn), data,
                          encode_spare(TYPE_DATA, 0, 0, data),
                          submit_us=eng.sched.now)


def test_default_level_table_shape():
    levels = default_levels(TINY)
    frees = [l.free_threshold for l in levels]
    valids = [l.valid_threshold for l in levels]
    assert frees == sorted(frees, reverse=True)
    assert valids[0] == 0
    assert valids == sorted(valids)


def test_current_level_boundaries():
    eng = gc_engine()
    gc = eng.gc
    assert gc.current_level(0) is None            # 16 free, above all
    drain_free(eng, 0, 6)
    assert gc.current_level(0) == 0               # exactly at level 0
    drain_free(eng, 0, 3)
    assert gc.current_level(0) == 1
    drain_free(eng, 0, 1)
    assert gc.current_level(0) == 2               # nearly exhausted
    eng.shutdown(clean=True)


def test_level_table_matches_threshold_rule():
    """current_level is a table lookup; the rule it encodes is the highest
    level whose free threshold the bank's free count is at or below."""
    rng = random.Random(4)
    eng = gc_engine()
    for _ in range(200):
        levels = [GcLevel(rng.randint(-2, 20), rng.randint(0, 8))
                  for _ in range(rng.randint(1, 4))]
        gc = GcController(eng.sched, eng.device, eng.state,
                          GcPolicy(kind="NPGC"), eng.cores, levels)
        for free in range(TINY.blocks_per_bank + 1):
            eng.state.banks[0].free_blocks = free
            want = None
            for i, lvl in enumerate(levels):
                if free <= lvl.free_threshold:
                    want = i
            assert gc.current_level(0) == want
    eng.shutdown(clean=False)


def test_select_victim_zero_valid_only_at_level0():
    eng = gc_engine()
    synth_block(eng, 0, 0, [], fill_pages=4)          # fully stale block
    synth_block(eng, 0, 1, [1, 2, 3])
    drain_free(eng, 0, 6)
    assert eng.gc.select_victim(0, 0) == 0
    eng.state.release_block(0, 0)
    eng.state.free_bits[0, 0] = False                  # hide it again as occupied
    eng.state.valid_count[0] = 1                       # now nothing is zero-valid
    eng.state.valid_bits[0, 0] = True
    eng.state.recount()                                # forged arrays -> counters, index
    assert eng.state.banks[0].free_blocks == 6
    assert eng.gc.select_victim(0, 0) is None
    assert eng.gc.select_victim(0, 1) == 0
    eng.shutdown(clean=False)


def test_select_victim_minimum_with_bruteforce_oracle():
    rng = random.Random(9)
    for _ in range(25):
        eng = gc_engine()
        counts = {}
        lpn = 0
        for block, valid in enumerate(rng.sample(range(0, 6), 3)):
            lpns = list(range(lpn, lpn + valid))
            lpn += valid
            synth_block(eng, 0, block, lpns, fill_pages=max(valid, 1))
            counts[block] = valid
        threshold = 4
        eligible = {b: v for b, v in counts.items() if v <= threshold}
        oracle = min(sorted(eligible), key=lambda b: (eligible[b], b)) if eligible else None
        got = eng.gc.select_victim(0, 2)
        assert got == oracle
        eng.shutdown(clean=False)


def test_collect_zero_valid_is_erase_only():
    eng = gc_engine()
    synth_block(eng, 0, 0, [], fill_pages=5)
    before = eng.device.device_stats()
    delta = eng.run(eng.gc.collect_block(0, 0))
    after = eng.device.device_stats()
    assert delta.blocks_collected == 1
    assert delta.valid_pages_copied == 0
    assert after.blocks_erased == before.blocks_erased + 1
    assert after.pages_written == before.pages_written
    assert eng.state.free_bits[0, 0]
    eng.shutdown(clean=True)


def test_a_copy_keeps_its_source_spare_byte_for_byte():
    eng = gc_engine()
    g = eng.device.geometry
    lpns = [10, 11, 12]
    synth_block(eng, 0, 0, lpns, fill_pages=5)
    source = {lpn: eng.device.read_page(g.split_ppn(eng.state.map_lookup(lpn)),
                                        want_spare=True)[:2] for lpn in lpns}
    delta = eng.run(eng.gc.collect_block(0, 0))
    assert delta.valid_pages_copied == len(lpns)
    for lpn, (data, spare) in source.items():
        addr = g.split_ppn(eng.state.map_lookup(lpn))
        assert addr[:2] != (0, 0)
        copy_data, copy_spare, _ = eng.device.read_page(addr, want_spare=True)
        assert (copy_data, copy_spare) == (data, spare)
        seq = decode_spare(spare, data)[2]
        stored = eng.device._banks[addr.bank][addr.block].spares[addr.page]
        assert stored == encode_spare(TYPE_DATA, lpn, seq, data)
    eng.shutdown(clean=True)


def test_collect_copies_stay_in_bank_and_remap():
    eng = gc_engine()
    for b in range(1, TINY.num_banks):
        eng.state.banks[b].gc_active = True  # land every flush in bank 0
    lpns = [4, 9, 13]
    writes = {}
    for lpn in lpns:
        for s in range(SPP):
            data = sector_payload((lpn, s), SECTOR)
            eng.write_sector(lpn * SPP + s, data)
            writes[lpn * SPP + s] = data
    eng.flush()
    for b in range(1, TINY.num_banks):
        eng.state.banks[b].gc_active = False
    victims = {eng.state.map_lookup(lpn) // TINY.pages_per_block for lpn in lpns}
    assert len(victims) == 1                 # same current block collected them
    gblock = victims.pop()
    bank, block = divmod(gblock, TINY.blocks_per_bank)
    eng.state.banks[bank].current_block = None   # retire it so it is a victim
    open_current(eng, bank)
    before = eng.device.device_stats()
    free_before = eng.state.banks[bank].free_blocks
    valid_before = bank_valid(eng, bank)
    delta = eng.run(eng.gc.collect_block(bank, block))
    after = eng.device.device_stats()
    assert delta.valid_pages_copied == 3
    assert after.pages_written - before.pages_written == 3
    assert after.blocks_erased - before.blocks_erased == 1
    # bank locality and conservation
    for lpn in lpns:
        ppn = eng.state.map_lookup(lpn)
        assert ppn // (TINY.blocks_per_bank * TINY.pages_per_block) == bank
    assert bank_valid(eng, bank) == valid_before
    assert eng.state.banks[bank].free_blocks == free_before + 1
    # GC transparency
    for lsn, data in writes.items():
        assert eng.read_sector(lsn) == data
    eng.state.audit()
    eng.shutdown(clean=True)


def test_npgc_noop_above_thresholds():
    eng = gc_engine()
    before = eng.device.device_stats().blocks_erased
    eng.run(eng.gc.npgc_before_write(0))
    assert eng.device.device_stats().blocks_erased == before
    eng.shutdown(clean=True)


def test_npgc_erases_zero_valid_victims_inline():
    eng = gc_engine()
    synth_block(eng, 0, 0, [], fill_pages=3)
    synth_block(eng, 0, 1, [], fill_pages=3)
    drain_free(eng, 0, 5)        # one erase still leaves level 0 breached
    before = eng.device.device_stats().blocks_erased
    eng.run(eng.gc.npgc_before_write(0))
    erased = eng.device.device_stats().blocks_erased - before
    assert erased == 2           # both zero-valid victims reclaimed inline
    assert eng.gc.current_level(0) is None or eng.gc.select_victim(
        0, eng.gc.current_level(0)) is None
    eng.shutdown(clean=False)


def test_npgc_escalates_levels_on_synthetic_bank():
    eng = gc_engine()
    synth_block(eng, 0, 0, [0, 1], fill_pages=6)    # 2 valid: level-1 victim
    drain_free(eng, 0, 4)
    open_current(eng, 0)
    assert eng.state.banks[0].free_blocks == 3       # level 1 active, not level 0
    assert eng.gc.current_level(0) == 1
    before = eng.device.device_stats().blocks_erased
    eng.run(eng.gc.npgc_before_write(0))
    # no zero-valid victim existed, so the 2-valid block was taken at level 1
    assert eng.device.device_stats().blocks_erased - before == 1
    assert eng.state.banks[0].free_blocks == 4
    eng.state.audit()
    eng.shutdown(clean=False)


def test_worker_rounds_claim_disjoint_banks():
    eng = gc_engine()   # NPGC spawns no collector actors; rounds run manually
    synth_block(eng, 0, 0, [], fill_pages=2)
    synth_block(eng, 1, 0, [], fill_pages=2)
    drain_free(eng, 0, 6)
    drain_free(eng, 1, 6)
    seen = []

    def observed_round(tid):
        claimed = [b for b, info in enumerate(eng.state.banks) if info.gc_active]
        seen.append(tuple(claimed))
        delta = yield from eng.gc.gc_worker_round(tid)
        return delta

    a1 = eng.sched.spawn(observed_round(0), "r0")
    a2 = eng.sched.spawn(observed_round(1), "r1")
    eng.pump(a1.done_event)
    eng.pump(a2.done_event)
    assert a1.result is not None and a2.result is not None
    assert eng.state.free_bits[0, 0] and eng.state.free_bits[1, 0]
    eng.shutdown(clean=True)


def test_worker_round_none_when_clean():
    eng = gc_engine()
    assert eng.run(eng.gc.gc_worker_round(0)) is None
    eng.shutdown(clean=True)


def test_worker_round_collects_write_target_if_only_option():
    eng = gc_engine()
    synth_block(eng, 2, 0, [], fill_pages=2)
    drain_free(eng, 2, 6)
    eng.state.banks[2].writers_active = 1    # writer on the only dirty bank
    delta = eng.run(eng.gc.gc_worker_round(0))
    assert delta is not None and delta.blocks_collected == 1
    eng.state.banks[2].writers_active = 0
    eng.shutdown(clean=False)


def test_instrumentation_log_export(tmp_path):
    eng = gc_engine()
    synth_block(eng, 0, 0, [0, 1], fill_pages=4)
    eng.run(eng.gc.collect_block(0, 0))
    path = tmp_path / "gc_events.csv"
    eng.gc.export_log(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestamp_us,event,bank,block"
    events = [line.split(",")[1] for line in lines[1:]]
    assert "victim-selected" in events
    assert "copy" in events and "erase" in events
    eng.shutdown(clean=True)


def test_adaptive_map_default_bands():
    bands = default_adaptive_map(64, 8)
    table = {}
    for lo, hi, permitted in bands:
        for v in (lo, hi):
            table[v] = permitted
    assert table[0] == 8 and table[16] == 8
    assert table[17] == 4 and table[32] == 4
    assert table[33] == 2 and table[48] == 2
    assert table[49] == 1 and table[64] == 1


def test_master_tick_throttle_and_exclusive():
    policy = GcPolicy(kind="PLLGC_ADAPTIVE", max_gc_threads=8)
    eng = gc_engine(policy=policy)
    gc = eng.gc
    gc.bands = default_adaptive_map(64, 8)       # as if 64 IO workers
    gc.io_activity = lambda: 64
    assert gc.master_tick() == 1
    gc.io_activity = lambda: 0
    assert gc.master_tick() == 8
    gc.io_activity = lambda: 20
    assert gc.master_tick() == 4
    # exclusive flag on the single worst bank, cleared with hysteresis
    drain_free(eng, 3, max(0, gc.panic_free_blocks - 1))
    gc.master_tick()
    assert eng.state.banks[3].exclusive_gc
    flagged = [b for b, i in enumerate(eng.state.banks) if i.exclusive_gc]
    assert flagged == [3]
    while eng.state.banks[3].free_blocks < gc.panic_free_blocks + PANIC_HYSTERESIS:
        eng.state.release_block(3, eng.state.banks[3].free_blocks)  # refill
    gc.master_tick()
    assert not eng.state.banks[3].exclusive_gc
    eng.shutdown(clean=False)


def test_adaptive_worker_count_respects_permit_bound():
    policy = GcPolicy(kind="PLLGC_ADAPTIVE", max_gc_threads=4,
                      idle_poll_us=200, master_tick_us=100)
    eng = tiny_engine(policy=policy, levels=LEVELS)
    eng.gc.bands = [(0, 64, 2)]     # set before any collector runs
    for bank in range(4):
        for block in range(3):
            synth_block(eng, bank, block, [], fill_pages=2)
        drain_free(eng, bank, 6)
    observed = []

    def watcher():
        for _ in range(200):
            observed.append(eng.gc.active_threads)
            yield 100

    w = eng.sched.spawn(watcher(), "watch")
    eng.pump(w.done_event)
    # bound holds after the first master tick (workers park themselves)
    assert max(observed[20:]) <= 2
    eng.shutdown(clean=True)


def test_gc_transparency_random_workload_with_oracle():
    rng = random.Random(31)
    eng = tiny_engine(policy=GcPolicy(kind="PLLGC", max_gc_threads=2),
                      levels=LEVELS, buffers=4, export_ratio=0.6)
    shadow = ShadowBlockDevice(SECTOR)
    lpns = min(eng.state.num_lpns, 220)
    for step in range(2500):
        lsn = rng.randrange(lpns * SPP)
        if rng.random() < 0.7:
            data = sector_payload(step, SECTOR)
            eng.write_sector(lsn, data)
            shadow.write(lsn, data)
        else:
            assert eng.read_sector(lsn) == shadow.expected(lsn)
    eng.flush()
    for lsn in sorted(shadow.acked)[::7]:
        assert eng.read_sector(lsn) == shadow.expected(lsn)
    assert eng.gc.stats.blocks_collected > 0
    eng.state.audit()
    eng.shutdown(clean=True)


def test_free_block_progress_and_conservation_loop():
    rng = random.Random(13)
    for case in range(100):
        eng = gc_engine()
        bank = rng.randrange(TINY.num_banks)
        valid = rng.randrange(0, 5)
        lpns = list(range(valid))
        synth_block(eng, bank, 0, lpns, fill_pages=max(valid, 1))
        open_current(eng, bank)   # copies go to an already-open block
        free_before = eng.state.banks[bank].free_blocks
        valid_before = bank_valid(eng, bank)
        delta = eng.run(eng.gc.collect_block(bank, 0))
        assert delta.blocks_collected == 1
        assert delta.erases_performed >= delta.blocks_collected
        assert eng.state.banks[bank].free_blocks == free_before + 1
        assert bank_valid(eng, bank) == valid_before
        eng.state.audit()
        eng.shutdown(clean=False)


def test_copy_losing_its_remap_race_stays_invalid():
    eng = gc_engine()
    g = eng.device.geometry
    lpn = 5
    synth_block(eng, 0, 0, [lpn], fill_pages=4)
    victim_ppn = eng.state.map_lookup(lpn)
    info = eng.state.banks[0]
    # step the collection by hand until the copy's program is submitted:
    # it now waits for that program, and its remap is still to come
    written = eng.device.device_stats().pages_written
    gen = eng.gc.collect_block(0, 0)
    while eng.device.device_stats().pages_written == written:
        next(gen)
    copy_ppn = g.ppn(0, info.current_block, info.next_page - 1)
    rewrite = {}
    for s in range(SPP):
        rewrite[lpn * SPP + s] = sector_payload(("user", s), SECTOR)
        eng.write_sector(lpn * SPP + s, rewrite[lpn * SPP + s])
    eng.flush()
    user_ppn = eng.state.map_lookup(lpn)
    assert user_ppn not in (victim_ppn, copy_ppn)
    with pytest.raises(StopIteration) as stop:
        while True:
            next(gen)
    delta = stop.value.value
    assert delta.wasted_copies == 1
    assert delta.valid_pages_copied == 0
    assert delta.blocks_collected == 1       # the rewrite emptied the victim
    assert eng.state.map_lookup(lpn) == user_ppn
    assert not eng.state.valid_bits[copy_ppn // g.pages_per_block,
                                    copy_ppn % g.pages_per_block]
    for lsn, data in rewrite.items():
        assert eng.read_sector(lsn) == data
    eng.audit(deep=True)
    eng.shutdown(clean=True)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 11: a user page counts as invalid while its program is in "
    "flight, so a collection may pick its block, copy nothing and erase it"))
def test_collection_spares_a_block_whose_last_page_is_in_flight():
    eng = tiny_engine()
    g = eng.device.geometry
    state, bank, lpn = eng.state, 0, 5
    # every page of the bank's open block but the last holds stale data
    for page in range(g.pages_per_block - 1):
        ppn = state.alloc_page_in_bank(bank)
        data = sector_payload(("stale", page), g.page_size)
        eng.device.write_page(g.split_ppn(ppn), data,
                              encode_spare(TYPE_DATA, lpn, 0, data),
                              submit_us=eng.sched.now)
    assert state.banks[bank].next_page == g.pages_per_block - 1
    eng.io._bank_cursor = bank
    page = sector_payload(("user", lpn), g.page_size)

    def writer():
        # takes the block's last page and waits for its program
        ppn = yield from eng.io._program_lpn_page(lpn, bytearray(page),
                                                  eng.io.full_mask)
        eng.io._map_flushed(lpn, ppn)

    def collector():
        yield 1
        victim = eng.gc.select_victim(bank, 0)
        if victim is not None:
            yield from eng.gc.collect_block(bank, victim)

    actors = [eng.sched.spawn(writer(), "writer"),
              eng.sched.spawn(collector(), "collector")]
    for actor in actors:
        eng.sched.join(actor)
    eng.flush()
    got = b"".join(eng.read_sector(lpn * SPP + s) for s in range(SPP))
    assert got == page
    eng.audit(deep=True)
    eng.shutdown(clean=True)
