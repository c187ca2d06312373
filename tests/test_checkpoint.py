import hashlib
import random

import numpy as np
import pytest

from bankftl import bench, checkpoint
from bankftl.checkpoint import (Checkpointer, restore_state, section_sizes,
                                serialize_state, window_blocks)
from bankftl.engine import Engine, EngineConfig
from bankftl.errors import CheckpointError
from bankftl.ftl_state import UNMAPPED, FtlState
from bankftl.gc_engine import GcLevel, GcPolicy
from bankftl.io_engine import EngineParams
from bankftl.oob import (LPN_NONE, SPARE_BYTES, TYPE_CHECKPOINT, TYPE_DATA,
                         decode_spare, encode_spare, framed_length,
                         pack_sections, unpack_sections)
from bankftl.sched import Scheduler
from bankftl.sim_flash import PROFILES, PageAddress, SimFlashDevice

from conftest import (TINY, sector_payload, synth_block, tiny_engine,
                      traced_memory)

SPP = TINY.sectors_per_page


def fresh_pair(device=None):
    device = device or SimFlashDevice(TINY)
    sched = Scheduler(0)
    state = FtlState(TINY, 8, 0.875, sorted(device.bad_block_set()))
    return sched, device, state, Checkpointer(sched, device, state, k=4)


def tables_equal(a, b):
    return (np.array_equal(a.map, b.map)
            and np.array_equal(a.free_bits, b.free_bits)
            and np.array_equal(a.valid_bits, b.valid_bits)
            and np.array_equal(a.valid_count, b.valid_count)
            and all(x.free_blocks == y.free_blocks
                    for x, y in zip(a.banks, b.banks)))


def test_spare_codec_roundtrip():
    page = b"\x3c" * TINY.page_size
    spare = encode_spare(TYPE_DATA, 77, 123456789, page)
    assert len(spare) == SPARE_BYTES <= TINY.spare_per_page
    assert decode_spare(spare, page) == (TYPE_DATA, 77, 123456789)
    assert decode_spare(spare) == (TYPE_DATA, 77, 123456789)   # crc skipped
    assert decode_spare(spare, b"\x00" * TINY.page_size) is None  # torn
    assert decode_spare(b"\xff" * SPARE_BYTES) is None            # erased
    ck = encode_spare(TYPE_CHECKPOINT, LPN_NONE, 5, page)
    assert decode_spare(ck, page)[0] == TYPE_CHECKPOINT


def test_window_block_indices():
    assert window_blocks(TINY, 2) == [0, 1, 14, 15]
    assert window_blocks(TINY, 100) == list(range(8)) + list(range(8, 16))


def test_serialize_restore_identity_random():
    rng = random.Random(21)
    for _ in range(10):
        _, device, state, _ = fresh_pair()
        for lpn in rng.sample(range(state.num_lpns), 40):
            state.map[lpn] = rng.randrange(TINY.total_pages)
        state.free_bits[:] = rng.random() < 0.5
        for _ in range(30):
            state.valid_bits[rng.randrange(TINY.total_blocks),
                             rng.randrange(TINY.pages_per_block)] = True
        state.valid_count[:] = state.valid_bits.sum(axis=1)
        state.recount()
        for bank, info in enumerate(state.banks):
            info.current_block = rng.choice([None, 3])
            info.next_page = rng.randrange(TINY.pages_per_block)
        state.sequence_floor(rng.randrange(1, 10_000))
        blob = serialize_state(state)
        _, _, other, _ = fresh_pair()
        restore_state(other, blob)
        assert tables_equal(state, other)
        assert other.sequence >= state.sequence
        assert other.banks[0].current_block == state.banks[0].current_block
        assert other.banks[0].next_page == state.banks[0].next_page


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_serialized_length_follows_from_the_geometry(profile):
    state = FtlState(PROFILES[profile])
    length = framed_length(section_sizes(state).values())
    assert length == len(serialize_state(state))


# the serialized tables of a desk8 card aged, worked by four clients and
# collected by two PLLGC collectors; the BANK section's valid column is
# the per-bank sum of the block valid counts
WORKED_DESK8_PAYLOAD = (
    "2c6e0fa0c692480be8f6c5647c4144f6c05679afd25ef146505d78f29c8e8cf3")


def test_worked_desk8_payload_is_pinned():
    eng = Engine.start(EngineConfig(
        profile="desk8", io=EngineParams(num_queues=16),
        policy=GcPolicy(kind="PLLGC", max_gc_threads=2),
        levels=[GcLevel(16, 0), GcLevel(12, 16), GcLevel(8, 32)], seed=5))
    bench.inject_aging(eng, bench.AgingSpec(
        free_mean=8, free_spread=1.5, free_min=5, valid_mean=36,
        valid_spread=8, valid_max=58, seed=16))
    bench.drive(eng, bench.WorkloadSpec(num_client_threads=4, region_lpns=512,
                                        rounds=1, pattern="random", seed=5))
    eng.run(eng.io.flush_all())
    assert eng.gc.stats.blocks_collected > 0
    payload = serialize_state(eng.state)
    assert hashlib.sha256(payload).hexdigest() == WORKED_DESK8_PAYLOAD
    eng.shutdown(clean=False)


def test_restore_rejects_corruption():
    _, _, state, _ = fresh_pair()
    blob = bytearray(serialize_state(state))
    blob[20] ^= 0xFF
    with pytest.raises(CheckpointError):
        restore_state(state, bytes(blob))


CKPT_TAGS = dict.fromkeys((b"MAPT", b"FREE", b"VBIT", b"VCNT", b"BANK", b"SEQC"))


def _reframe(payload, extra=(), drop=(), resize=None):
    """Re-frame a good payload with CRC-valid changes: extra sections, a
    dropped tag, or one section a byte shorter (-1) or longer (+1)."""
    sections = dict(zip(CKPT_TAGS, unpack_sections(payload, CKPT_TAGS,
                                                   AssertionError)))
    for tag in drop:
        del sections[tag]
    if resize is not None:
        tag, delta = resize
        blob = sections[tag]
        sections[tag] = blob[:-1] if delta < 0 else blob + b"\x00"
    return pack_sections(list(sections.items()) + list(extra))


MALFORMED_PAYLOADS = {
    "trailing-partial-header": lambda p: p + b"xy",
    "repeated-tag": lambda p: _reframe(p, extra=[(b"SEQC", bytes(8))]),
    "unknown-tag": lambda p: _reframe(p, extra=[(b"XTRA", b"")]),
    "missing-tag": lambda p: _reframe(p, drop=[b"VCNT"]),
    **{f"{tag.decode()}{delta:+d}": (lambda p, r=(tag, delta): _reframe(p, resize=r))
       for tag in CKPT_TAGS for delta in (-1, 1)},
}


@pytest.mark.parametrize("corrupt", MALFORMED_PAYLOADS.values(),
                         ids=MALFORMED_PAYLOADS.keys())
def test_restore_rejects_malformed_payload(corrupt):
    _, _, state, _ = fresh_pair()
    state.map[3] = 17
    payload = serialize_state(state)
    _, _, other, _ = fresh_pair()
    with pytest.raises(CheckpointError):
        restore_state(other, corrupt(payload))
    restore_state(other, payload)
    assert tables_equal(state, other)


@pytest.mark.parametrize("corrupt", [MALFORMED_PAYLOADS["trailing-partial-header"],
                                     MALFORMED_PAYLOADS["MAPT-1"]],
                         ids=["trailing-partial-header", "MAPT-1"])
def test_malformed_chain_falls_back_to_recovery_scan(tmp_path, monkeypatch,
                                                     corrupt):
    image = str(tmp_path / "flash.img")
    eng = tiny_engine(image_path=image)
    data = {lpn * SPP: sector_payload(lpn, TINY.read_unit) for lpn in (0, 5, 9)}
    for lsn, payload in data.items():
        eng.write_sector(lsn, payload)
    good = checkpoint.serialize_state
    monkeypatch.setattr(checkpoint, "serialize_state",
                        lambda state: corrupt(good(state)))
    assert eng.shutdown(clean=True) is not None    # the chain was written
    monkeypatch.undo()
    eng = tiny_engine(image_path=image)
    assert eng.recovered_via == "recovery_scan"
    for lsn, payload in data.items():
        assert eng.read_sector(lsn) == payload
    eng.shutdown(clean=False)


def test_save_load_roundtrip_with_windowed_probes():
    eng = tiny_engine()
    data = {}
    for lpn in (0, 5, 9):
        for s in range(SPP):
            payload = sector_payload((lpn, s), TINY.read_unit)
            eng.write_sector(lpn * SPP + s, payload)
            data[lpn * SPP + s] = payload
    eng.flush()
    saved_map = eng.state.map.copy()
    head = eng.run(eng.ckpt.save())
    assert head[1] in window_blocks(TINY, 4)
    assert head[2] == 0            # no relocation needed on a fresh card

    device = eng.device
    eng.shutdown(clean=False)      # leave the flash image as-is
    sched, device, state, loader = fresh_pair(device)
    before = device.device_stats().read_ops
    assert sched.join(sched.spawn(loader.load(), "load"))
    reads = device.device_stats().read_ops - before
    assert loader.window_probes <= 2 * 4 * TINY.num_banks
    assert reads <= 2 * 4 * TINY.num_banks + loader.chain_reads
    # the consumed head no longer re-loads
    assert np.array_equal(state.map[saved_map != UNMAPPED],
                          saved_map[saved_map != UNMAPPED])
    sched2, device, state2, loader2 = fresh_pair(device)
    assert not sched2.join(sched2.spawn(loader2.load(), "load2"))


def test_chain_load_copies_the_payload_at_most_once():
    eng = tiny_engine(profile="desk64")
    g = eng.device.geometry
    for lpn in range(0, eng.state.num_lpns, 97):
        eng.write_sector(lpn * g.sectors_per_page, sector_payload(lpn, g.read_unit))
    eng.flush()
    eng.run(eng.ckpt.save())
    length = len(serialize_state(eng.state))
    assert length > 2 * g.pages_per_block * g.page_size   # a chain of blocks
    device = eng.device
    eng.shutdown(clean=False)
    sched = Scheduler(0)
    state = FtlState(g, 8, 0.875, sorted(device.bad_block_set()))
    loader = Checkpointer(sched, device, state, k=4)
    with traced_memory() as mem:
        assert sched.join(sched.spawn(loader.load(), "load"))
    assert mem.peak < 2.5 * length


def test_blank_device_load_not_found():
    sched, _, _, loader = fresh_pair()
    assert sched.join(sched.spawn(loader.load(), "load")) is False


def test_two_heads_highest_sequence_wins():
    eng = tiny_engine()
    eng.write_sector(0, b"\x01" * TINY.read_unit)
    eng.flush()
    eng.run(eng.ckpt.save())                       # older chain
    eng.write_sector(SPP, b"\x02" * TINY.read_unit)   # lpn 1, sector 0
    eng.flush()
    map_after_second = eng.state.map.copy()
    eng.run(eng.ckpt.save())                       # newer chain
    device = eng.device
    eng.shutdown(clean=False)
    sched, device, state, loader = fresh_pair(device)
    assert sched.join(sched.spawn(loader.load(), "load"))
    assert state.map_lookup(1) == int(map_after_second[1])
    assert state.map_lookup(1) != UNMAPPED


def test_head_relocation_when_windows_full():
    eng = tiny_engine()
    # occupy every window block of every bank with one valid page each
    for bank in range(TINY.num_banks):
        for block in window_blocks(TINY, 4):
            lpn_base = bank * 100 + block
            synth_block(eng, bank, block, [lpn_base], fill_pages=1)
    head = eng.run(eng.ckpt.save())
    assert head[2] == 1            # exactly one relocation performed
    assert head[1] in window_blocks(TINY, 4)
    eng.state.audit()
    device = eng.device
    eng.shutdown(clean=False)
    sched, device, state, loader = fresh_pair(device)
    assert sched.join(sched.spawn(loader.load(), "load"))
    for bank in range(TINY.num_banks):
        for block in window_blocks(TINY, 4):
            lpn = bank * 100 + block
            ppn = state.map_lookup(lpn)
            assert ppn != UNMAPPED   # relocated data still mapped


def test_head_relocation_keeps_a_block_of_headroom():
    eng = tiny_engine()
    window = window_blocks(TINY, 4)
    # bank 0 holds the emptiest window blocks but only one free block: too
    # little room to take their copies and still keep a spare block
    spare = TINY.blocks_per_bank // 2
    assert spare not in window
    for block in range(TINY.blocks_per_bank):
        if block != spare:
            live = [block] if block in window else []
            synth_block(eng, 0, block, live, fill_pages=TINY.pages_per_block)
    for bank in range(1, TINY.num_banks):
        for block in window:
            base = 1 + bank * 100 + block * 2
            synth_block(eng, bank, block, [base, base + 1], fill_pages=2)
    head = eng.run(eng.ckpt.save())
    assert head == (1, window[0], 1)
    assert eng.state.banks[0].free_blocks == 1
    eng.state.audit()
    eng.shutdown(clean=False)


def test_recovery_scan_matches_checkpoint_load():
    eng = tiny_engine()
    rng = random.Random(4)
    for step in range(300):
        lsn = rng.randrange(60 * SPP)
        eng.write_sector(lsn, sector_payload(step, TINY.read_unit))
    eng.flush()
    eng.run(eng.ckpt.save())
    device = eng.device
    eng.shutdown(clean=False)

    sched_a, _, state_a, scanner = fresh_pair(device)
    sched_a.join(sched_a.spawn(scanner.recovery_scan(), "scan"))
    sched_b, _, state_b, loader = fresh_pair(device)
    assert sched_b.join(sched_b.spawn(loader.load(), "load"))

    assert np.array_equal(state_a.map, state_b.map)
    assert np.array_equal(state_a.valid_bits, state_b.valid_bits)
    assert np.array_equal(state_a.valid_count, state_b.valid_count)
    # free bitmaps agree except the consumed chain head, erased by load
    diff = np.argwhere(state_a.free_bits != state_b.free_bits)
    assert len(diff) <= 1
    for bank, block in diff:
        assert not state_a.free_bits[bank, block]   # scan saw it written
        assert state_b.free_bits[bank, block]       # load freed the head


def test_recovery_last_writer_wins_and_torn_pages():
    device = SimFlashDevice(TINY)
    page = sector_payload("old", TINY.page_size)
    device.write_page(PageAddress(0, 0, 0), page,
                      encode_spare(TYPE_DATA, 3, 10, page))
    newer = sector_payload("new", TINY.page_size)
    device.write_page(PageAddress(1, 0, 0), newer,
                      encode_spare(TYPE_DATA, 3, 11, newer))
    lost = sector_payload("torn", TINY.page_size)
    device.write_page(PageAddress(1, 0, 1), lost,
                      encode_spare(TYPE_DATA, 4, 12, lost))
    device.corrupt_spare(PageAddress(1, 0, 1))
    sched, _, state, scanner = fresh_pair(device)
    sched.join(sched.spawn(scanner.recovery_scan(), "scan"))
    assert state.map_lookup(3) == TINY.ppn(1, 0, 0)   # highest sequence wins
    assert state.map_lookup(4) == UNMAPPED            # torn page skipped
    assert not state.free_bits[0, 0] and not state.free_bits[1, 0]
    assert state.free_bits[0, 1]


def test_recovery_blank_device_all_free():
    sched, device, state, scanner = fresh_pair()
    found = sched.join(sched.spawn(scanner.recovery_scan(), "scan"))
    assert found == 0
    assert int(state.free_bits.sum()) == TINY.total_blocks
    assert int((state.map != UNMAPPED).sum()) == 0


def test_restore_and_scan_clear_valid_bits_already_set():
    """Both restore paths write only the set bits of a table, so a table
    that holds bits from before must come out exactly as the source."""
    rng = random.Random(5)
    sched, device, state, _ = fresh_pair()
    for _ in range(30):
        state.valid_bits[rng.randrange(TINY.total_blocks),
                         rng.randrange(TINY.pages_per_block)] = True
    state.valid_count[:] = state.valid_bits.sum(axis=1)
    blob = serialize_state(state)
    osched, _, other, ckpt = fresh_pair()
    other.valid_bits[:, ::3] = True
    restore_state(other, blob)
    assert np.array_equal(other.valid_bits, state.valid_bits)
    # a blank card's scan clears the table, and an unset table stays unset
    for bits in (other.valid_bits, np.zeros_like(other.valid_bits)):
        other.valid_bits[:] = bits
        osched.join(osched.spawn(ckpt.recovery_scan(), "scan"))
        assert not other.valid_bits.any()


def test_roundtrip_identity_property_loop():
    rng = random.Random(88)
    for case in range(100):
        _, device, state, _ = fresh_pair()
        n = rng.randrange(0, 60)
        for lpn in rng.sample(range(state.num_lpns), n):
            state.map[lpn] = rng.randrange(TINY.total_pages)
        state.valid_count[:] = 0
        blob = serialize_state(state)
        _, _, clone, _ = fresh_pair()
        restore_state(clone, blob)
        assert tables_equal(state, clone)


def _count_calls(monkeypatch, name, calls):
    original = getattr(Checkpointer, name)

    def counting(self, *args):
        calls[name] += 1
        return original(self, *args)
    monkeypatch.setattr(Checkpointer, name, counting)


def _crash_and_repair(tmp_path, monkeypatch, banks):
    """Write every free block of `banks` fully (three live pages, five
    stale), crash, and restart: the recovery scan finds those banks without
    a free block, so the free-pool repair has to make one. Returns the
    restarted engine, each lpn's last page image, and repair call counts."""
    calls = {"_relocate_anywhere": 0, "_compact_block": 0}
    for name in calls:
        _count_calls(monkeypatch, name, calls)
    image = str(tmp_path / "card.img")
    eng = tiny_engine(image_path=image)
    lpn = 0
    for bank in banks:
        for block in map(int, np.flatnonzero(eng.state.free_bits[bank])):
            synth_block(eng, bank, block, list(range(lpn, lpn + 3)))
            lpn += 3
    last = {n: eng.device.read_page(TINY.split_ppn(eng.state.map_lookup(n)))[0]
            for n in range(lpn)}
    eng.shutdown(clean=False)
    eng = tiny_engine(image_path=image)
    assert eng.recovered_via == "recovery_scan"
    return eng, last, calls


def _assert_reads_back(eng, last):
    eng.audit(deep=True)
    sector = TINY.read_unit
    for lpn in range(eng.state.num_lpns):
        page = last.get(lpn, b"\x00" * TINY.page_size)
        for s in range(SPP):
            assert (eng.read_sector(lpn * SPP + s)
                    == page[s * sector:(s + 1) * sector]), (lpn, s)


def test_free_pool_repair_relocates_into_other_banks(tmp_path, monkeypatch):
    eng, last, calls = _crash_and_repair(tmp_path, monkeypatch, [0])
    assert calls == {"_relocate_anywhere": 1, "_compact_block": 0}
    assert eng.state.banks[0].free_blocks == 1
    bank_pages = TINY.blocks_per_bank * TINY.pages_per_block
    moved = [n for n in last if eng.state.map_lookup(n) >= bank_pages]
    assert len(moved) == 3         # one victim's live pages left bank 0
    _assert_reads_back(eng, last)
    eng.shutdown(clean=True)


def test_free_pool_repair_compacts_a_full_card(tmp_path, monkeypatch):
    eng, last, calls = _crash_and_repair(tmp_path, monkeypatch,
                                         range(TINY.num_banks))
    assert calls["_compact_block"] >= 1
    assert calls["_relocate_anywhere"] >= 1
    assert all(info.free_blocks >= 1 for info in eng.state.banks)
    _assert_reads_back(eng, last)
    eng.shutdown(clean=True)
