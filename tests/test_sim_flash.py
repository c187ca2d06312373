import hashlib
import pickle
import random
import re
import struct
import tracemalloc

import pytest

from bankftl.errors import (AddressError, BadBlockError, ConfigurationError,
                            OverwriteViolation, SequencingViolation)
from bankftl.oob import pack_sections, unpack_sections
from bankftl.sim_flash import (PROFILES, FlashGeometry, LatencyModel,
                               PageAddress, SimFlashDevice, load_profile,
                               parse_profile, profile_dict, save_profile)

from conftest import TINY, tiny_device

PAGE = TINY.page_size


def page_of(byte):
    return bytes([byte]) * PAGE


def test_full_card_queue_layout():
    dev = SimFlashDevice(PROFILES["card512"])
    assert dev.geometry.num_banks == 64
    assert len(dev.bus_free_at) == 4
    assert len(dev.read_queues) == 32


def test_fresh_device_erased_and_unflagged():
    dev = tiny_device()
    assert dev.bad_block_set() == set()
    data, spare, _ = dev.read_page(PageAddress(1, 3, 2), want_spare=True)
    assert data == b"\xff" * PAGE
    assert spare == b"\xff" * TINY.spare_per_page
    stats = dev.device_stats()
    assert stats.pages_written == 0 and stats.blocks_erased == 0


def test_small_geometry_capacity_and_reads():
    g = FlashGeometry(1, 1, 4, 4, 1024, 32, 256)
    dev = SimFlashDevice(g)
    assert g.total_pages == 16
    for block in range(4):
        for page in range(4):
            data, _, _ = dev.read_page(PageAddress(0, block, page))
            assert data == b"\xff" * 1024


def test_bad_blocks_flagged_and_rejected():
    dev = tiny_device(bad_blocks=[(0, 3), (1, 5)])
    assert dev.bad_block_set() == {(0, 3), (1, 5)}
    with pytest.raises(BadBlockError):
        dev.write_page(PageAddress(0, 3, 0), page_of(1))
    with pytest.raises(BadBlockError):
        dev.erase_block(1, 5)


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigurationError):
        FlashGeometry(1, 1, 4, 4, 1000, 32, 256).validate()   # not unit multiple
    with pytest.raises(ConfigurationError):
        FlashGeometry(1, 1, 4, 4, 1024, 4, 256).validate()    # spare too small
    with pytest.raises(ConfigurationError):
        FlashGeometry(0, 1, 4, 4, 1024, 32, 256).validate()


def test_sequential_write_rule():
    dev = tiny_device()
    dev.write_page(PageAddress(0, 0, 0), page_of(0))
    dev.write_page(PageAddress(0, 0, 1), page_of(1))
    with pytest.raises(SequencingViolation):
        dev.write_page(PageAddress(0, 0, 3), page_of(3))
    with pytest.raises(OverwriteViolation):
        dev.write_page(PageAddress(0, 0, 0), page_of(9))


def test_write_read_identity_with_spare():
    dev = tiny_device()
    payload = bytes(range(256)) * (PAGE // 256)
    dev.write_page(PageAddress(1, 2, 0), payload, b"meta")
    data, spare, _ = dev.read_page(PageAddress(1, 2, 0), want_spare=True)
    assert data == payload
    assert spare[:4] == b"meta"
    assert spare[4:] == b"\xff" * (TINY.spare_per_page - 4)


def test_read_single_unit_window():
    dev = tiny_device()
    payload = b"".join(bytes([i]) * TINY.read_unit for i in range(TINY.sectors_per_page))
    dev.write_page(PageAddress(0, 1, 0), payload)
    data, _, desc = dev.read_page(PageAddress(0, 1, 0), 0, TINY.read_unit)
    assert data == bytes([0]) * TINY.read_unit
    assert desc.service_latency == LatencyModel().read_unit_us
    data, _, _ = dev.read_page(PageAddress(0, 1, 0), TINY.read_unit, TINY.read_unit)
    assert data == bytes([1]) * TINY.read_unit


def test_erase_resets_block_and_counts():
    dev = tiny_device()
    dev.write_page(PageAddress(0, 0, 0), page_of(7))
    dev.erase_block(0, 0)
    data, _, _ = dev.read_page(PageAddress(0, 0, 0))
    assert data == b"\xff" * PAGE
    assert dev.block_state(0, 0)[:2] == (1, 0)
    dev.erase_block(0, 0)
    assert dev.block_state(0, 0)[0] == 2
    dev.write_page(PageAddress(0, 0, 0), page_of(8))   # writable again


def test_wear_limit_flags_but_allows():
    g = FlashGeometry(1, 1, 4, 4, 1024, 32, 256, erase_cycles_limit=3)
    dev = SimFlashDevice(g)
    for _ in range(4):
        dev.erase_block(0, 0)
    stats = dev.device_stats()
    assert stats.wear_events == 1
    assert (0, 0) in stats.wear_flagged_blocks
    dev.erase_block(0, 0)   # still operational by simulation policy
    assert dev.device_stats().wear_events == 1


def test_dma_parallel_banks_overlap():
    dev = tiny_device()
    single = LatencyModel().write_page_us
    # banks 0 and 2 sit on different interfaces in the tiny profile
    d1 = dev.write_page(PageAddress(0, 0, 0), page_of(1), submit_us=0)
    d2 = dev.write_page(PageAddress(2, 0, 0), page_of(2), submit_us=0)
    assert d1.request_id != d2.request_id
    assert d1.complete_us == d2.complete_us == single


def test_dma_same_bank_serializes():
    dev = tiny_device()
    m = LatencyModel()
    dev.write_page(PageAddress(0, 0, 0), page_of(1), submit_us=0)
    d = dev.write_page(PageAddress(0, 0, 1), page_of(2), submit_us=0)
    # executions on one bank serialize; only the transfer slice pipelines
    assert d.complete_us == 2 * m.write_page_us - m.write_transfer_us


def test_queues_of_one_interface_share_its_bus():
    dev = tiny_device()
    m = LatencyModel()
    # banks 0 and 1: interface 0, separate write and erase queues
    dev.write_page(PageAddress(0, 0, 0), page_of(1), submit_us=0)
    d = dev.erase_block(1, 0, submit_us=0)
    assert d.complete_us == m.write_transfer_us + m.erase_block_us


def test_read_queue_serializes_banks_on_two_interfaces():
    # one bank per interface: banks 0 and 1 have buses of their own but share
    # read queue 0, so the second read's transfer waits for the first one's
    dev = SimFlashDevice(FlashGeometry(2, 1, 4, 4, 1024, 32, 256))
    m = LatencyModel()
    first = dev.read_page(PageAddress(0, 0, 0), length=256, submit_us=0)[2]
    second = dev.read_page(PageAddress(1, 0, 0), length=256, submit_us=0)[2]
    assert first.complete_us == m.read_unit_us
    assert second.complete_us == m.read_transfer_us + m.read_unit_us


def test_parallel_speedup_property():
    model = LatencyModel()
    for banks in (2, 4):
        dev = SimFlashDevice(PROFILES["desk8"])
        descs = []
        for b in range(banks):
            bank = b * dev.geometry.banks_per_interface  # distinct interfaces
            d = dev.write_page(PageAddress(bank, 0, 0),
                               b"\x05" * dev.geometry.page_size, submit_us=0)
            descs.append(d)
        total = max(d.complete_us for d in descs)
        assert total < banks * model.write_page_us


def test_sequential_prefix_invariant_random():
    rng = random.Random(5)
    dev = tiny_device()
    highest = {}
    for _ in range(500):
        bank = rng.randrange(TINY.num_banks)
        block = rng.randrange(TINY.blocks_per_bank)
        if rng.random() < 0.25:
            dev.erase_block(bank, block)
            highest[(bank, block)] = 0
            continue
        nxt = highest.get((bank, block), 0)
        if nxt >= TINY.pages_per_block:
            continue
        dev.write_page(PageAddress(bank, block, nxt), page_of(rng.randrange(256)))
        highest[(bank, block)] = nxt + 1
    for (bank, block), prefix in highest.items():
        assert dev.written_prefix(bank, block) == prefix
        for page in range(TINY.pages_per_block):
            data, _, _ = dev.read_page(PageAddress(bank, block, page))
            if page >= prefix:
                assert data == b"\xff" * PAGE


def test_replay_determinism_and_stats_oracle():
    def run(log):
        dev = tiny_device()
        if log:
            dev.enable_request_log()
        rng = random.Random(3)
        next_page = {}
        for _ in range(200):
            bank = rng.randrange(TINY.num_banks)
            block = rng.randrange(TINY.blocks_per_bank)
            if rng.random() < 0.3:
                dev.erase_block(bank, block)
                next_page[(bank, block)] = 0
            else:
                page = next_page.get((bank, block), 0)
                if page < TINY.pages_per_block:
                    dev.write_page(PageAddress(bank, block, page), page_of(1))
                    next_page[(bank, block)] = page + 1
        return dev

    a, b = run(True), run(False)
    sa, sb = a.device_stats(), b.device_stats()
    assert sa.pages_written == sb.pages_written
    assert sa.erase_counts_per_bank == sb.erase_counts_per_bank
    # shadow oracle: recompute counters from the request log
    writes = sum(1 for row in a.request_log if row[1] == "write")
    erases = [0] * TINY.num_banks
    for row in a.request_log:
        if row[1] == "erase":
            erases[row[2]] += 1
    assert writes == sa.pages_written
    assert erases == sa.erase_counts_per_bank


def test_request_log_export(tmp_path):
    dev = tiny_device()
    dev.enable_request_log()
    dev.write_page(PageAddress(0, 0, 0), page_of(1))
    dev.read_page(PageAddress(0, 0, 0), 0, 256)
    path = tmp_path / "reqs.csv"
    dev.export_request_log(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "request_id,kind,bank,block,page,submit_ts_us,complete_ts_us"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "write"


def test_profile_file_roundtrip(tmp_path):
    path = tmp_path / "dev.profile"
    save_profile(path, TINY, LatencyModel(write_page_us=321), [(0, 2)])
    geometry, model, bad = load_profile(path)
    assert geometry == TINY
    assert model.write_page_us == 321
    assert bad == [(0, 2)]


def test_profile_parse_defaults_and_validation():
    d = profile_dict(TINY, LatencyModel())
    del d["write_transfer_us"]
    geometry, model, _ = parse_profile(d)
    assert model.write_transfer_us == LatencyModel().write_transfer_us
    d["page_size"] = "1000"
    with pytest.raises(ConfigurationError):
        parse_profile(d)


def test_image_roundtrip(tmp_path):
    dev = tiny_device(bad_blocks=[(1, 1)])
    payload = bytes(range(256)) * (PAGE // 256)
    dev.write_page(PageAddress(0, 0, 0), payload, b"sp")
    dev.erase_block(0, 1)
    path = tmp_path / "flash.img"
    dev.save_image(path)
    copy = SimFlashDevice.load_image(path)
    data, spare, _ = copy.read_page(PageAddress(0, 0, 0), want_spare=True)
    assert data == payload and spare[:2] == b"sp"
    assert copy.block_state(0, 1)[0] == 1
    assert copy.bad_block_set() == {(1, 1)}
    assert copy.device_stats().pages_written == 1


# ---- blocks that were never programmed or erased ---------------------------

CARD = PROFILES["card512"]


def test_card512_builds_without_materialising_blocks():
    tracemalloc.start()
    try:
        SimFlashDevice(CARD)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_untouched_block_reads_erased_and_is_charged():
    dev = SimFlashDevice(CARD)
    m = LatencyModel()
    addr = PageAddress(63, 4095, 63)
    data, spare, desc = dev.read_page(addr, want_spare=True)
    assert data == b"\xff" * CARD.page_size
    assert spare == b"\xff" * CARD.spare_per_page
    assert desc.service_latency == CARD.sectors_per_page * m.read_unit_us
    again, _, _ = dev.read_page(PageAddress(5, 17, 0))
    assert again is data                   # one shared erased page
    unit = CARD.read_unit
    window, _, desc = dev.read_page(addr, offset=3 * unit, length=2 * unit)
    assert window == b"\xff" * (2 * unit)
    assert desc.service_latency == 2 * m.read_unit_us
    probe, spare, desc = dev.read_page(addr, length=0, want_spare=True)
    assert probe == b"" and spare == b"\xff" * CARD.spare_per_page
    assert desc.service_latency == m.read_unit_us
    stats = dev.device_stats()
    assert stats.read_ops == 4
    assert stats.read_units == 2 * CARD.sectors_per_page + 2 + 1


def test_untouched_block_state_and_prefix():
    dev = SimFlashDevice(CARD)
    assert dev.block_state(40, 1234) == (0, 0, False, False)
    assert dev.written_prefix(40, 1234) == 0
    with pytest.raises(SequencingViolation):
        dev.write_page(PageAddress(40, 1234, 1), b"\x01" * CARD.page_size)
    with pytest.raises(AddressError):
        dev.write_page(PageAddress(40, CARD.blocks_per_bank, 0),
                       b"\x01" * CARD.page_size)
    with pytest.raises(AddressError):
        dev.erase_block(CARD.num_banks, 0)
    with pytest.raises(AddressError):
        dev.read_page(PageAddress(40, 1234, CARD.pages_per_block))
    # negative indices must not wrap to the last bank or block
    for bank, block in ((-1, -1), (-1, 0), (0, -1), (CARD.num_banks, 0),
                        (0, CARD.blocks_per_bank)):
        with pytest.raises(AddressError):
            dev.block_state(bank, block)
        with pytest.raises(AddressError):
            dev.written_prefix(bank, block)
        with pytest.raises(AddressError):
            dev.corrupt_spare(PageAddress(bank, block, 0))
    for page in (-1, CARD.pages_per_block):
        with pytest.raises(AddressError):
            dev.corrupt_spare(PageAddress(40, 1234, page))


def test_erasing_untouched_block_counts_one_cycle():
    dev = SimFlashDevice(CARD)
    desc = dev.erase_block(7, 99)
    assert desc.service_latency == LatencyModel().erase_block_us
    assert dev.block_state(7, 99) == (1, 0, False, False)
    assert dev.device_stats().erase_counts_per_bank[7] == 1
    data, _, _ = dev.read_page(PageAddress(7, 99, 0))
    assert data == b"\xff" * CARD.page_size
    dev.write_page(PageAddress(7, 99, 0), b"\x02" * CARD.page_size)
    assert dev.written_prefix(7, 99) == 1


def test_corrupt_spare_of_unwritten_page_does_nothing():
    dev = tiny_device()
    dev.corrupt_spare(PageAddress(1, 4, 0))            # never touched
    dev.write_page(PageAddress(0, 2, 0), page_of(3), b"meta")
    dev.corrupt_spare(PageAddress(0, 2, 1))            # erased tail
    for addr in (PageAddress(1, 4, 0), PageAddress(0, 2, 1)):
        _, spare, _ = dev.read_page(addr, want_spare=True)
        assert spare == b"\xff" * TINY.spare_per_page
    assert dev.block_state(1, 4) == (0, 0, False, False)
    assert dev.written_prefix(0, 2) == 1
    dev.corrupt_spare(PageAddress(0, 2, 0))            # written page: garbled
    _, spare, _ = dev.read_page(PageAddress(0, 2, 0), want_spare=True)
    assert spare[:4] == b"\x00" * 4


def test_card512_bad_blocks_rejected_and_reported():
    bad = [(0, 0), (33, 2048), (63, 4095)]
    dev = SimFlashDevice(CARD, bad_blocks=bad)
    assert dev.bad_block_set() == set(bad)
    dev.bad_block_set().add((1, 1))                    # a copy, not the device's
    assert dev.bad_block_set() == set(bad)
    for bank, block in bad:
        assert dev.block_state(bank, block) == (0, 0, True, False)
        with pytest.raises(BadBlockError):
            dev.write_page(PageAddress(bank, block, 0), b"\x01" * CARD.page_size)
        with pytest.raises(BadBlockError):
            dev.erase_block(bank, block)
    assert dev.device_stats().requests_accepted == 0


def test_card512_image_roundtrip(tmp_path):
    dev = SimFlashDevice(CARD, bad_blocks=[(12, 345)])
    pages = {}
    for bank, block, count in ((0, 0, 3), (31, 2000, 1), (63, 4095, 2)):
        for page in range(count):
            data = bytes([bank, block % 256, page]) * (CARD.page_size // 3) + b"\0\0"
            dev.write_page(PageAddress(bank, block, page), data, b"sp%d" % page)
            pages[(bank, block, page)] = data
    dev.erase_block(50, 7)
    path = tmp_path / "card.img"
    dev.save_image(path)
    copy = SimFlashDevice.load_image(path)
    assert copy.geometry == CARD
    assert copy.device_stats() == dev.device_stats()
    for (bank, block, page), data in pages.items():
        got, spare, _ = copy.read_page(PageAddress(bank, block, page), want_spare=True)
        assert got == data and spare[:3] == b"sp%d" % page
    for bank, block in ((0, 0), (31, 2000), (63, 4095), (50, 7), (12, 345), (5, 5)):
        assert copy.block_state(bank, block) == dev.block_state(bank, block)
    assert copy.block_state(50, 7) == (1, 0, False, False)
    assert copy.block_state(5, 5) == (0, 0, False, False)
    assert copy.bad_block_set() == {(12, 345)}
    data, _, _ = copy.read_page(PageAddress(31, 2000, 1))
    assert data == b"\xff" * CARD.page_size
    with pytest.raises(OverwriteViolation):
        copy.write_page(PageAddress(63, 4095, 1), b"\x01" * CARD.page_size)


def clock_oracle(geometry, model, requests):
    """Completion times of (kind, bank, submit_us) requests, issued in order:
    a transfer holds the request's queue and its interface's bus, then the
    execution holds its bank. Reads here are one read unit."""
    slices = {"write": (model.write_transfer_us, model.write_page_us),
              "erase": (model.erase_transfer_us, model.erase_block_us),
              "read": (model.read_transfer_us, model.read_unit_us)}
    free = {}
    done = []
    for kind, bank, submit in requests:
        itf = bank // geometry.banks_per_interface
        queue = ("rq", bank // 2) if kind == "read" else (kind, itf)
        transfer, total = slices[kind]
        start = max(submit, free.get(queue, 0), free.get(("bus", itf), 0))
        free[queue] = free[("bus", itf)] = start + transfer
        end = max(start + transfer, free.get(("bank", bank), 0)) + total - transfer
        free[("bank", bank)] = end
        done.append(end)
    return done


def test_out_of_order_completions_match_clock_oracle():
    rng = random.Random(29)
    dev = SimFlashDevice(PROFILES["desk8"])
    dev.enable_request_log()
    g = dev.geometry
    next_page = {}
    issued = []
    for _ in range(400):
        bank = rng.randrange(g.num_banks)
        block = rng.randrange(8)
        submit = rng.randrange(0, 200_000)
        kind = rng.choice(["read", "read", "write", "erase"])
        if kind == "write" and next_page.get((bank, block), 0) < g.pages_per_block:
            page = next_page.get((bank, block), 0)
            next_page[(bank, block)] = page + 1
            dev.write_page(PageAddress(bank, block, page), b"\x03" * g.page_size,
                           submit_us=submit)
        elif kind == "erase":
            next_page[(bank, block)] = 0
            dev.erase_block(bank, block, submit_us=submit)
        else:
            kind = "read"
            dev.read_page(PageAddress(bank, block, 0), length=g.read_unit,
                          submit_us=submit)
        issued.append((kind, bank, submit))
    log = dev.request_log
    assert [(row[1], row[2], row[5]) for row in log] == issued
    assert [row[6] for row in log] == clock_oracle(g, dev.model, issued)
    by_completion = sorted(log, key=lambda row: (row[6], row[0]))
    assert [row[0] for row in by_completion] != [row[0] for row in log]


# ---- flash images are parsed, never executed ---------------------------------

IMAGE_TAGS = dict.fromkeys((b"PROF", b"CNTR", b"WEAR", b"BLKS"))
RECORD = struct.Struct("<IIIIBB")  # bank, block, erases, prefix, bad, worn
CANARY = []


def _trip_canary():
    CANARY.append("ran")


class _Exploit:
    def __reduce__(self):
        return _trip_canary, ()


def test_pickled_image_is_rejected_without_running_code(tmp_path):
    path = tmp_path / "old.img"
    path.write_bytes(b"BFTLIMG1" + pickle.dumps(_Exploit(), protocol=4))
    with pytest.raises(ConfigurationError, match=re.escape(str(path))):
        SimFlashDevice.load_image(path)
    assert CANARY == []


def test_image_roundtrip_keeps_wear_flags_and_clock(tmp_path):
    dev = SimFlashDevice(FlashGeometry(1, 2, 4, 4, 1024, 32, 256,
                                       erase_cycles_limit=2))
    for _ in range(3):
        dev.erase_block(1, 2)
    dev.write_page(PageAddress(1, 2, 0), b"\x04" * 1024, submit_us=50_000)
    path = tmp_path / "worn.img"
    dev.save_image(path)
    copy = SimFlashDevice.load_image(path)
    assert copy.device_stats() == dev.device_stats()
    assert copy.device_stats().wear_flagged_blocks == [(1, 2)]
    assert copy.block_state(1, 2) == dev.block_state(1, 2) == (3, 1, False, True)
    assert copy.now_us == dev.now_us


def _resection(raw, drop=(), extra=(), **blobs):
    """Re-frame a good image with sections replaced, dropped or added."""
    sections = dict(zip(IMAGE_TAGS, unpack_sections(raw[8:], IMAGE_TAGS,
                                                    AssertionError)))
    sections.update({tag.encode(): blob for tag, blob in blobs.items()})
    for tag in drop:
        del sections[tag]
    return raw[:8] + pack_sections(list(sections.items()) + list(extra))


def _record(bank, block, pages, spare=b"sp"):
    out = RECORD.pack(bank, block, 0, len(pages), 0, 0)
    for page in pages:
        out += page + struct.pack("<I", len(spare)) + spare
    return out


MALFORMED_IMAGES = {
    "bad-magic": lambda raw: b"NOTANIMG" + raw[8:],
    "truncated": lambda raw: raw[:len(raw) // 2],
    "crc-mismatch": lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),
    "missing-section": lambda raw: _resection(raw, drop=[b"WEAR"]),
    "repeated-section": lambda raw: _resection(raw, extra=[(b"WEAR", b"")]),
    "unknown-section": lambda raw: _resection(raw, extra=[(b"XTRA", b"")]),
    "profile-missing-keys": lambda raw: _resection(raw, PROF=b"page_size = 2048\n"),
    "profile-invalid": lambda raw: _resection(raw, PROF="".join(
        f"{k} = {1000 if k == 'page_size' else v}\n"
        for k, v in profile_dict(TINY, LatencyModel()).items()).encode()),
    "short-counters": lambda raw: _resection(raw, CNTR=bytes(8)),
    "wear-out-of-range": lambda raw: _resection(
        raw, WEAR=struct.pack("<2Q", TINY.num_banks, 0)),
    "bank-out-of-range": lambda raw: _resection(
        raw, BLKS=_record(TINY.num_banks, 0, [page_of(1)])),
    "block-out-of-range": lambda raw: _resection(
        raw, BLKS=_record(0, TINY.blocks_per_bank, [page_of(1)])),
    "header-truncated": lambda raw: _resection(
        raw, BLKS=_record(0, 0, [])[:RECORD.size - 1]),
    "page-truncated": lambda raw: _resection(
        raw, BLKS=_record(0, 0, [page_of(1)])[:RECORD.size + PAGE - 1]),
    "long-spare": lambda raw: _resection(
        raw, BLKS=_record(0, 0, [page_of(1)], b"s" * (TINY.spare_per_page + 1))),
    "prefix-over-block": lambda raw: _resection(
        raw, BLKS=_record(0, 0, [page_of(1)] * (TINY.pages_per_block + 1))),
    "spare-truncated": lambda raw: _resection(
        raw, BLKS=_record(0, 0, [page_of(1)])[:-1]),
    "block-stored-twice": lambda raw: _resection(raw, BLKS=_record(0, 0, []) * 2),
}


@pytest.mark.parametrize("corrupt", MALFORMED_IMAGES.values(),
                         ids=MALFORMED_IMAGES.keys())
def test_malformed_image_rejected(tmp_path, corrupt):
    dev = tiny_device(bad_blocks=[(1, 1)])
    dev.write_page(PageAddress(0, 0, 0), page_of(5), b"sp")
    dev.erase_block(0, 1)
    good = tmp_path / "good.img"
    dev.save_image(good)
    assert SimFlashDevice.load_image(good).device_stats() == dev.device_stats()
    path = tmp_path / "bad.img"
    path.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(ConfigurationError, match=re.escape(str(path))):
        SimFlashDevice.load_image(path)


# ---- stored-page form: a page keeps only the bytes that carry data ----------

def sample_pages(g, rng):
    """Pages of every storage shape: dense, a fill pattern, a header then
    zeros in every read unit, a zero tail in the last unit only, single
    non-zero bytes at unit and head boundaries, all zeros, and random mixes
    of zero, header-only and dense units."""
    ps, ru, n = g.page_size, g.read_unit, g.sectors_per_page

    def header_unit(k):
        return rng.randbytes(k) + bytes(ru - k)

    pages = [rng.randbytes(ps), b"\xa5" * ps, bytes(ps),
             b"".join(header_unit(16) for _ in range(n)),
             b"".join(header_unit(64) for _ in range(n)),
             rng.randbytes(ps - ru) + header_unit(64),
             rng.randbytes(ps - ru) + bytes(ru),
             header_unit(12) + bytes(ps - ru)]
    for offset in (0, 15, 63, 64, 65, ru - 1, ru, ru + 64, ps // 2 + 100,
                   ps - ru, ps - ru + 63, ps - ru + 64, ps - 1):
        page = bytearray(ps)
        page[offset] = rng.randrange(1, 256)
        pages.append(bytes(page))
    shapes = (lambda: bytes(ru), lambda: header_unit(rng.randrange(1, 65)),
              lambda: rng.randbytes(ru))
    for _ in range(12):
        pages.append(b"".join(rng.choice(shapes)() for _ in range(n)))
    return pages


def assert_reads_back(dev, written):
    g = dev.geometry
    ru, n = g.read_unit, g.sectors_per_page
    for addr, (data, spare) in written.items():
        padded = spare + b"\xff" * (g.spare_per_page - len(spare))
        for first in range(n + 1):
            for end in range(first, n + 1):
                got, sp, _ = dev.read_page(addr, first * ru, (end - first) * ru,
                                           want_spare=True)
                assert got == data[first * ru:end * ru]
                assert sp == padded
        got, sp, _ = dev.read_page(addr)
        assert got == data and sp == b""


@pytest.mark.parametrize("profile", ["desk8", "card512"])
def test_stored_pages_read_back_as_written(tmp_path, profile):
    g = PROFILES[profile]
    rng = random.Random(profile)
    dev = SimFlashDevice(g)
    written = {}
    for i, data in enumerate(sample_pages(g, rng)):
        addr = PageAddress(i % g.num_banks, 3, i // g.num_banks)
        spare = rng.randbytes(rng.randrange(g.spare_per_page + 1))
        dev.write_page(addr, bytearray(data) if i % 2 else data, spare)
        written[addr] = (data, spare)
    assert_reads_back(dev, written)
    dev.save_image(tmp_path / "f.img")
    copy = SimFlashDevice.load_image(tmp_path / "f.img")
    copy.save_image(tmp_path / "g.img")
    assert (tmp_path / "g.img").read_bytes() == (tmp_path / "f.img").read_bytes()
    assert_reads_back(copy, written)


def programmed_sample_device():
    """A small device programmed deterministically with every page shape."""
    dev = SimFlashDevice(TINY, bad_blocks=[(3, 7)])
    rng = random.Random(2024)
    for i, data in enumerate(sample_pages(TINY, rng)):
        block, page = divmod(i // TINY.num_banks, TINY.pages_per_block)
        dev.write_page(PageAddress(i % TINY.num_banks, block, page), data,
                       rng.randbytes(rng.randrange(TINY.spare_per_page + 1)),
                       submit_us=i * 37)
    dev.erase_block(1, 5)
    return dev


# taken while every page was still stored whole: how a page is held in
# memory must not change a byte of the image
SAMPLE_IMAGE_SHA256 = \
    "c4f86809096ba249019fda6510f672421d995803dd5bfae1c888e9cdd6117c61"


def test_image_bytes_are_pinned(tmp_path):
    programmed_sample_device().save_image(tmp_path / "f.img")
    digest = hashlib.sha256((tmp_path / "f.img").read_bytes()).hexdigest()
    assert digest == SAMPLE_IMAGE_SHA256


def test_header_pages_are_stored_in_a_few_bytes_per_unit():
    dev = SimFlashDevice(CARD)
    tail = bytes(CARD.read_unit - 16)
    tracemalloc.start()
    try:
        for i in range(256):
            page = b"".join(struct.pack("<QQ", i, s) + tail
                            for s in range(CARD.sectors_per_page))
            dev.write_page(PageAddress(i % 4, 0, i // 4), page)
            del page
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20
