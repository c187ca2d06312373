import random

import numpy as np
import pytest

from bankftl.errors import AddressError, AuditError, ExhaustionError
from bankftl.ftl_state import UNMAPPED, FtlState

from conftest import TINY


def fresh_state(bad=()):
    return FtlState(TINY, num_buffers=8, export_ratio=0.875, bad_blocks=bad)


def test_fresh_map_unmapped_everywhere():
    state = fresh_state()
    for lpn in (0, 1, state.num_lpns - 1):
        assert state.map_lookup(lpn) == UNMAPPED
    with pytest.raises(AddressError):
        state.map_lookup(state.num_lpns)


def test_map_update_returns_previous():
    state = fresh_state()
    assert state.map_update_locked(5, 100) == UNMAPPED
    assert state.map_lookup(5) == 100
    assert state.map_update_locked(5, 222) == 100
    assert state.map_lookup(5) == 222
    for lpn in (-1, state.num_lpns):
        with pytest.raises(AddressError):
            state.map_update_locked(lpn, 7)


def test_map_update_if_cas_semantics():
    state = fresh_state()
    state.map_update_locked(9, 40)
    assert state.map_update_if(9, 40, 41)
    assert not state.map_update_if(9, 40, 42)
    assert state.map_lookup(9) == 41
    for lpn in (-1, state.num_lpns):
        with pytest.raises(AddressError):
            state.map_update_if(lpn, UNMAPPED, 7)


def test_alloc_free_block_exhaustion_and_bad_exclusion():
    state = fresh_state(bad=[(0, b) for b in range(1, TINY.blocks_per_bank)])
    assert state.banks[0].free_blocks == 1
    assert state.alloc_free_block(0) == 0   # the only good block
    with pytest.raises(ExhaustionError):
        state.alloc_free_block(0)
    state.release_block(0, 0)
    assert state.banks[0].free_blocks == 1


def test_alloc_page_sequential_fill_and_rollover():
    state = fresh_state()
    ppns = [state.alloc_page_in_bank(1) for _ in range(TINY.pages_per_block + 1)]
    pages = [p % TINY.pages_per_block for p in ppns]
    assert pages == list(range(TINY.pages_per_block)) + [0]
    first_block = ppns[0] // TINY.pages_per_block
    assert ppns[-1] // TINY.pages_per_block != first_block


def test_mark_valid_invalid_netting():
    state = fresh_state()
    state.mark_valid(10)
    state.mark_invalid(10)
    block = 10 // TINY.pages_per_block
    assert state.valid_count[block] == 0
    for p in (16, 17, 18):
        state.mark_valid(p)
    assert state.valid_count[16 // TINY.pages_per_block] == 3
    state.mark_invalid(16)
    state.mark_invalid(16)   # idempotent double invalidate
    assert state.valid_count[16 // TINY.pages_per_block] == 2


def test_counts_match_bruteforce_oracle_random():
    rng = random.Random(42)
    state = fresh_state()
    shadow = set()
    for _ in range(2000):
        ppn = rng.randrange(TINY.total_pages)
        if rng.random() < 0.5:
            state.mark_valid(ppn)
            shadow.add(ppn)
        else:
            state.mark_invalid(ppn)
            shadow.discard(ppn)
    per_block = np.zeros(TINY.total_blocks, dtype=int)
    for ppn in shadow:
        per_block[ppn // TINY.pages_per_block] += 1
    assert np.array_equal(state.valid_count, per_block)
    assert state.mark_valid_total - state.mark_invalid_total == len(shadow)
    for bank, info in enumerate(state.banks):
        lo = bank * TINY.blocks_per_bank
        assert info.valid_pages == per_block[lo:lo + TINY.blocks_per_bank].sum()


def test_claims_block_and_release():
    state = fresh_state()
    assert state.try_claim_alloc(4)
    assert not state.try_claim_alloc(4)
    assert state.try_claim_alloc(5)     # distinct lpns are independent
    state.release_alloc(4)
    assert state.try_claim_alloc(4)


def test_sequence_monotone_and_floor():
    state = fresh_state()
    assert state.next_sequence() == 1
    assert state.next_sequence() == 2
    state.sequence_floor(100)
    assert state.next_sequence() == 101
    state.sequence_floor(5)             # floor never lowers
    assert state.next_sequence() == 102


def test_audit_passes_on_consistent_state():
    state = fresh_state()
    block = state.alloc_free_block(0)
    ppn = TINY.ppn(0, block, 0)
    state.map_update_locked(7, ppn)
    state.mark_valid(ppn)
    summary = state.audit()
    assert summary["mapped"] == 1 and summary["valid_pages"] == 1


def test_audit_detects_corruption():
    state = fresh_state()
    block = state.alloc_free_block(0)
    state.map_update_locked(7, TINY.ppn(0, block, 0))
    state.mark_valid(TINY.ppn(0, block, 0))
    state.valid_count[block] += 1   # forge the counter
    with pytest.raises(AuditError):
        state.audit()


def test_audit_detects_non_injective_map():
    state = fresh_state()
    state.map_update_locked(1, 33)
    state.map_update_locked(2, 33)
    state.mark_valid(33)
    with pytest.raises(AuditError):
        state.audit()
