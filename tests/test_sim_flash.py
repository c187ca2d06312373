import hashlib
import pickle
import random
import re
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankftl.engine import Engine, EngineConfig
from bankftl.errors import (AddressError, BadBlockError, ConfigurationError,
                            OverwriteViolation, SequencingViolation)
from bankftl.oob import pack_sections, unpack_sections
from bankftl.sim_flash import (PROFILES, FlashGeometry, LatencyModel,
                               PageAddress, SimFlashDevice, load_profile,
                               parse_profile, profile_dict, save_profile)

from conftest import TINY, tiny_device, traced_memory

PAGE = TINY.page_size


def page_of(byte):
    return bytes([byte]) * PAGE


def test_full_card_queue_layout():
    dev = SimFlashDevice(PROFILES["card512"])
    assert dev.geometry.num_banks == 64
    assert len(dev.bus_free_at) == 4
    assert len(dev.read_queue_free_at) == 32


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
    data, _, wait = dev.read_page(PageAddress(0, 1, 0), 0, TINY.read_unit)
    assert data == bytes([0]) * TINY.read_unit
    assert wait == LatencyModel().read_unit_us
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
    dev.enable_request_log()
    single = LatencyModel().write_page_us
    # banks 0 and 2 sit on different interfaces in the tiny profile
    w1 = dev.write_page(PageAddress(0, 0, 0), page_of(1), submit_us=0)
    w2 = dev.write_page(PageAddress(2, 0, 0), page_of(2), submit_us=0)
    assert [row[0] for row in dev.request_log] == [0, 1]
    assert w1 == w2 == single


def test_dma_same_bank_serializes():
    dev = tiny_device()
    m = LatencyModel()
    dev.write_page(PageAddress(0, 0, 0), page_of(1), submit_us=0)
    wait = dev.write_page(PageAddress(0, 0, 1), page_of(2), submit_us=0)
    # executions on one bank serialize; only the transfer slice pipelines
    assert wait == 2 * m.write_page_us - m.write_transfer_us


def test_queues_of_one_interface_share_its_bus():
    dev = tiny_device()
    m = LatencyModel()
    # banks 0 and 1: interface 0, separate write and erase queues
    dev.write_page(PageAddress(0, 0, 0), page_of(1), submit_us=0)
    wait = dev.erase_block(1, 0, submit_us=0)
    assert wait == m.write_transfer_us + m.erase_block_us


def test_read_queue_serializes_banks_on_two_interfaces():
    # one bank per interface: banks 0 and 1 have buses of their own but share
    # read queue 0, so the second read's transfer waits for the first one's
    dev = SimFlashDevice(FlashGeometry(2, 1, 4, 4, 1024, 32, 256))
    m = LatencyModel()
    first = dev.read_page(PageAddress(0, 0, 0), length=256, submit_us=0)[2]
    second = dev.read_page(PageAddress(1, 0, 0), length=256, submit_us=0)[2]
    assert first == m.read_unit_us
    assert second == m.read_transfer_us + m.read_unit_us


def test_parallel_speedup_property():
    model = LatencyModel()
    for banks in (2, 4):
        dev = SimFlashDevice(PROFILES["desk8"])
        waits = []
        for b in range(banks):
            bank = b * dev.geometry.banks_per_interface  # distinct interfaces
            waits.append(dev.write_page(PageAddress(bank, 0, 0),
                                        b"\x05" * dev.geometry.page_size,
                                        submit_us=0))
        total = max(waits)
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


@pytest.mark.parametrize("field, value", [
    ("write_page_us", 1300.5), ("write_transfer_us", 100.25),
    ("read_unit_us", 0), ("erase_block_us", -1),
    ("write_transfer_us", -5), ("read_transfer_us", 100),
    ("erase_transfer_us", 2000)])
def test_latency_model_rejects_fractional_negative_and_oversized(field, value):
    with pytest.raises(ConfigurationError, match=field):
        replace(LatencyModel(), **{field: value}).validate()


def test_latency_model_accepts_a_zero_transfer():
    model = LatencyModel(write_transfer_us=0, read_transfer_us=0,
                         erase_transfer_us=0)
    assert model.validate() is model


@pytest.mark.parametrize("key, value, names", [
    ("write_page_us", "200.5", "write_page_us"),
    ("page_size", "abc", "page_size"),
    ("num_interfaces", None, "num_interfaces"),
    ("bad_blocks", "0:x", "0:x"),
    ("bad_blocks", "3", "'3'")])
def test_malformed_profile_file_raises_configuration_error(
        tmp_path, key, value, names):
    d = profile_dict(TINY, LatencyModel(), [(0, 2)])
    if value is None:
        del d[key]
    else:
        d[key] = value
    path = tmp_path / "dev.profile"
    path.write_text("".join(f"{k} = {v}\n" for k, v in d.items()))
    with pytest.raises(ConfigurationError) as err:
        load_profile(path)
    assert names in str(err.value) and str(path) in str(err.value)


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
    with traced_memory() as mem:
        SimFlashDevice(CARD)
    assert mem.peak < 16 * 2**20


def test_untouched_block_reads_erased_and_is_charged():
    dev = SimFlashDevice(CARD)
    m = LatencyModel()
    addr = PageAddress(63, 4095, 63)
    data, spare, wait = dev.read_page(addr, want_spare=True)
    assert data == b"\xff" * CARD.page_size
    assert spare == b"\xff" * CARD.spare_per_page
    assert wait == CARD.sectors_per_page * m.read_unit_us
    again, _, _ = dev.read_page(PageAddress(5, 17, 0))
    assert again is data                   # one shared erased page
    unit = CARD.read_unit
    window, _, wait = dev.read_page(addr, offset=3 * unit, length=2 * unit)
    assert window == b"\xff" * (2 * unit)
    assert wait == 2 * m.read_unit_us
    probe, spare, wait = dev.read_page(addr, length=0, want_spare=True)
    assert probe == b"" and spare == b"\xff" * CARD.spare_per_page
    assert wait == m.read_unit_us
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
    wait = dev.erase_block(7, 99)
    assert wait == LatencyModel().erase_block_us
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


class ServiceModel:
    """The request path's clock arithmetic, written out plainly: a request
    starts when it is submitted and its interface's bus (a read also its
    read queue) is free, holds them for its transfer slice, then holds its
    bank for the rest of its latency. A read of n units costs n times a
    unit's slices. Also keeps the request log and the request counters."""

    def __init__(self, geometry, model):
        self.g, self.m = geometry, model
        self.bus_free_at = [0] * geometry.num_interfaces
        self.bank_free_at = [0] * geometry.num_banks
        self.queue_free_at = [0] * ((geometry.num_banks + 1) // 2)
        self.now_us = 0
        self.log = []
        self.stats = dict(pages_written=0, read_ops=0, read_units=0,
                          blocks_erased=0, requests_accepted=0)

    def service(self, kind, addr, submit_us, units=1):
        g, m = self.g, self.m
        if submit_us is None:
            submit_us = self.now_us
        bank, block, page = addr
        itf = bank // g.banks_per_interface
        start = max(submit_us, self.bus_free_at[itf])
        if kind == "write":
            transfer, total = m.write_transfer_us, m.write_page_us
            self.stats["pages_written"] += 1
        elif kind == "erase":
            transfer, total = m.erase_transfer_us, m.erase_block_us
            self.stats["blocks_erased"] += 1
        else:
            start = max(start, self.queue_free_at[bank // 2])
            transfer, total = m.read_transfer_us * units, m.read_unit_us * units
            self.queue_free_at[bank // 2] = start + transfer
            self.stats["read_ops"] += 1
            self.stats["read_units"] += units
        self.bus_free_at[itf] = start + transfer
        done = max(start + transfer, self.bank_free_at[bank]) + total - transfer
        self.bank_free_at[bank] = done
        self.now_us = max(self.now_us, done)
        rid = len(self.log)
        self.log.append((rid, kind, bank, block, page, submit_us, done))
        self.stats["requests_accepted"] += 1
        return rid, submit_us, done


def test_out_of_order_completions_match_clock_oracle():
    rng = random.Random(29)
    dev = SimFlashDevice(PROFILES["desk8"])
    dev.enable_request_log()
    g = dev.geometry
    next_page = {}
    issued, waits = [], []
    for _ in range(400):
        bank = rng.randrange(g.num_banks)
        block = rng.randrange(8)
        submit = rng.randrange(0, 200_000)
        kind = rng.choice(["read", "read", "write", "erase"])
        if kind == "write" and next_page.get((bank, block), 0) < g.pages_per_block:
            page = next_page.get((bank, block), 0)
            next_page[(bank, block)] = page + 1
            waits.append(dev.write_page(PageAddress(bank, block, page),
                                        b"\x03" * g.page_size, submit_us=submit))
        elif kind == "erase":
            next_page[(bank, block)] = 0
            waits.append(dev.erase_block(bank, block, submit_us=submit))
        else:
            kind = "read"
            waits.append(dev.read_page(PageAddress(bank, block, 0),
                                       length=g.read_unit, submit_us=submit)[2])
        issued.append((kind, bank, submit))
    log = dev.request_log
    assert [(row[1], row[2], row[5]) for row in log] == issued
    ref = ServiceModel(g, dev.model)
    expect = [ref.service(kind, (bank, 0, 0), submit)
              for kind, bank, submit in issued]
    assert [(row[0], row[5], row[6]) for row in log] == expect
    assert waits == [done - submit for _, submit, done in expect]
    by_completion = sorted(log, key=lambda row: (row[6], row[0]))
    assert [row[0] for row in by_completion] != [row[0] for row in log]


# two banks of one read queue sit on different interfaces (odd
# banks_per_interface), so the queue, not the bus, can hold a read back
ODD = FlashGeometry(3, 3, 8, 8, 2048, 32, 256)
ODD_MODEL = LatencyModel(write_page_us=170, read_unit_us=90, erase_block_us=1500,
                         write_transfer_us=30, read_transfer_us=70,
                         erase_transfer_us=5)


@pytest.mark.parametrize("geometry, model", [
    (TINY, None), (PROFILES["desk8"], None), (PROFILES["card512"], None),
    (ODD, ODD_MODEL)], ids=["tiny", "desk8", "card512", "odd"])
def test_request_path_matches_the_service_model(geometry, model):
    rng = random.Random(geometry.num_banks)
    dev = SimFlashDevice(geometry, model)
    dev.enable_request_log()
    ref = ServiceModel(geometry, dev.model)
    g, spp, unit = geometry, geometry.sectors_per_page, geometry.read_unit
    blocks = [(rng.randrange(g.num_banks), rng.randrange(g.blocks_per_bank))
              for _ in range(2 * g.num_banks)]
    for _ in range(1500):
        bank, block = rng.choice(blocks)
        # both address forms make the same request
        make = rng.choice([PageAddress, lambda *a: a])
        submit = rng.choice([None, rng.randrange(ref.now_us + 3000)])
        roll = rng.random()
        if roll < 0.3 and dev.written_prefix(bank, block) < g.pages_per_block:
            addr = make(bank, block, dev.written_prefix(bank, block))
            wait = dev.write_page(addr, bytes([rng.randrange(256)]) * g.page_size,
                                  b"sp", submit_us=submit)
            expect = ref.service("write", addr, submit)
        elif roll < 0.35:
            wait = dev.erase_block(bank, block, submit_us=submit)
            expect = ref.service("erase", (bank, block, 0), submit)
        else:
            addr = make(bank, block, rng.randrange(g.pages_per_block))
            first = rng.choice([0, rng.randrange(spp)])
            units = rng.randint(1, spp - first)
            if rng.random() < 0.2:
                length, units = None, spp - first       # to the page's end
            else:
                length = units * unit
            _, _, wait = dev.read_page(addr, first * unit, length,
                                       want_spare=rng.random() < 0.5,
                                       submit_us=submit)
            expect = ref.service("read", addr, submit, units)
        row = dev.request_log[-1]
        assert (row[0], row[5], row[6]) == expect
        # an int, the scheduler's fast path, and the row's own wait
        assert type(wait) is int and wait == row[6] - row[5]
        assert dev.now_us == ref.now_us
    assert dev.bus_free_at == ref.bus_free_at
    assert dev.bank_free_at == ref.bank_free_at
    assert dev.read_queue_free_at == ref.queue_free_at
    assert dev.request_log == ref.log
    stats = vars(dev.device_stats())
    assert {k: stats[k] for k in ref.stats} == ref.stats
    assert {row[1] for row in ref.log} == {"read", "write", "erase"}


REQUEST_CHECKS = {
    "read bank": (lambda dev, a: dev.read_page(a(4, 0, 0)), AddressError,
                  "bank 4 block 0 out of range"),
    "read block": (lambda dev, a: dev.read_page(a(0, 16, 0)), AddressError,
                   "bank 0 block 16 out of range"),
    "read page": (lambda dev, a: dev.read_page(a(0, 0, 8)), AddressError,
                  "page 8 out of range"),
    "read page -1": (lambda dev, a: dev.read_page(a(0, 0, -1)), AddressError,
                     "page -1 out of range"),
    "read window": (lambda dev, a: dev.read_page(a(0, 0, 0), 256, PAGE),
                    AddressError, "read window outside page"),
    "read unit": (lambda dev, a: dev.read_page(a(0, 0, 0), 0, 100), AddressError,
                  "reads are read_unit granular"),
    "write bank": (lambda dev, a: dev.write_page(a(-1, 0, 0), page_of(1)),
                   AddressError, "bank -1 block 0 out of range"),
    "write page": (lambda dev, a: dev.write_page(a(0, 0, 8), page_of(1)),
                   AddressError, "page 8 out of range"),
    "payload": (lambda dev, a: dev.write_page(a(0, 0, 0), b"x"), AddressError,
                "write payload must be one full page"),
    "spare": (lambda dev, a: dev.write_page(a(0, 0, 0), page_of(1), b"s" * 33),
              AddressError, "spare payload exceeds spare area"),
    "bad block": (lambda dev, a: dev.write_page(a(1, 3, 0), page_of(1)),
                  BadBlockError, "bank 1 block 3 is bad"),
    "overwrite": (lambda dev, a: dev.write_page(a(0, 1, 0), page_of(1)),
                  OverwriteViolation, "page 0 already written in block 1"),
    "sequencing": (lambda dev, a: dev.write_page(a(0, 1, 2), page_of(1)),
                   SequencingViolation, "expected page 1, got 2"),
}


def image_bytes(dev, path):
    dev.save_image(path)
    return path.read_bytes()


@pytest.mark.parametrize("case", REQUEST_CHECKS)
@pytest.mark.parametrize("form", [PageAddress, lambda *a: a],
                         ids=["PageAddress", "tuple"])
def test_request_checks_and_messages_for_both_address_forms(tmp_path, case,
                                                            form):
    call, error, message = REQUEST_CHECKS[case]
    dev = tiny_device(bad_blocks=[(1, 3)])
    dev.write_page(PageAddress(0, 1, 0), page_of(2))
    accepted = dev.device_stats().requests_accepted
    image = image_bytes(dev, tmp_path / "before.img")
    with pytest.raises(error) as info:
        call(dev, form)
    assert str(info.value) == message
    assert dev.device_stats().requests_accepted == accepted
    # not even a record of an untouched block (untouched blocks are not saved)
    assert image_bytes(dev, tmp_path / "after.img") == image


# ---- block synthesis -----------------------------------------------------------


def clocks(dev):
    return (dev.now_us, list(dev.bus_free_at), list(dev.bank_free_at),
            list(dev.read_queue_free_at))


@pytest.mark.parametrize("n", [0, 5, TINY.pages_per_block])
def test_program_block_stores_and_counts_as_write_page_does(n):
    rng = random.Random(n)
    # dense pages and a run of equal ones as full-length heads; a 1-byte
    # head, a head longer than a unit's stored head, and an empty one
    heads = [bytes(rng.getrandbits(8) for _ in range(PAGE)) if p % 5 == 0
             else page_of(7) if p % 5 == 1
             else bytes([p]) if p % 5 == 2
             else bytes(rng.getrandbits(8) for _ in range(100)) if p % 5 == 3
             else b"" for p in range(n)]
    pages = [head + bytes(PAGE - len(head)) for head in heads]
    spares = [bytes([p + 1]) * (p + 1) for p in range(n)]
    looped, synth = tiny_device(), tiny_device()
    for dev in (looped, synth):
        dev.enable_request_log()
        dev.write_page(PageAddress(1, 0, 0), page_of(3))
    for p in range(n):
        looped.write_page(PageAddress(0, 2, p), pages[p], spares[p])
    before, log = clocks(synth), list(synth.request_log)
    synth.program_block(0, 2, heads, spares)
    addrs = [PageAddress(0, 2, p) for p in range(n)]
    assert [stored(synth, a) for a in addrs] == [stored(looped, a) for a in addrs]
    assert [synth._banks[0][2].spares[p] for p in range(n)] == spares
    assert synth.block_state(0, 2) == looped.block_state(0, 2) == (0, n, False,
                                                                    False)
    assert synth.device_stats() == looped.device_stats()
    assert clocks(synth) == before
    assert (clocks(looped) != before) == bool(n)
    assert synth.request_log == log
    nxt = PageAddress(3, 0, 0)
    for dev in (synth, looped):
        dev.write_page(nxt, page_of(4))
    assert synth.request_log[-1][0] == looped.request_log[-1][0] == n + 1
    for a, data in zip(addrs, pages):
        assert synth.read_page(a)[0] == data


BLOCK_CHECKS = {
    "bank": ((-1, 0, [page_of(1)], [b""]), AddressError,
             "bank -1 block 0 out of range"),
    "block": ((0, 16, [page_of(1)], [b""]), AddressError,
              "bank 0 block 16 out of range"),
    "bad block": ((1, 3, [page_of(1)], [b""]), BadBlockError,
                  "bank 1 block 3 is bad"),
    "not erased": ((0, 1, [page_of(1)], [b""]), OverwriteViolation,
                   "bank 0 block 1 is not erased"),
    "pages": ((0, 0, [page_of(1)] * 9, [b""] * 9), AddressError,
              "9 pages and 9 spares for a 8-page block"),
    "spares": ((0, 0, [page_of(1)] * 2, [b""]), AddressError,
               "2 pages and 1 spares for a 8-page block"),
    "payload": ((0, 0, [b"x", page_of(1) + b"x"], [b"", b""]), AddressError,
                "write payload must be one full page"),
    "spare": ((0, 0, [page_of(1)] * 2, [b"", b"s" * 33]), AddressError,
              "spare payload exceeds spare area"),
}


@pytest.mark.parametrize("case", BLOCK_CHECKS)
def test_program_block_checks_once_and_stores_nothing_it_rejects(tmp_path,
                                                                 case):
    args, error, message = BLOCK_CHECKS[case]
    dev = tiny_device(bad_blocks=[(1, 3)])
    dev.write_page(PageAddress(0, 1, 0), page_of(2))
    stats = dev.device_stats()
    image = image_bytes(dev, tmp_path / "before.img")
    with pytest.raises(error) as info:
        dev.program_block(*args)
    assert str(info.value) == message
    assert dev.device_stats() == stats
    assert dev.written_prefix(0, 0) == 0 and dev.written_prefix(0, 1) == 1
    assert image_bytes(dev, tmp_path / "after.img") == image


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


def test_request_ids_continue_across_an_image(tmp_path):
    dev = tiny_device()
    dev.enable_request_log()
    dev.write_page(PageAddress(0, 0, 0), page_of(1))
    dev.read_page(PageAddress(0, 0, 0), 0, 256)
    dev.erase_block(1, 0)
    path = tmp_path / "ids.img"
    dev.save_image(path)
    copy = SimFlashDevice.load_image(path)
    copy.enable_request_log()
    copy.read_page(PageAddress(0, 0, 0), 0, 256)
    assert [row[0] for row in dev.request_log] == [0, 1, 2]
    assert [row[0] for row in copy.request_log] == [3]
    assert copy.device_stats().requests_accepted == 4


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
    with traced_memory() as mem:
        for i in range(256):
            page = b"".join(struct.pack("<QQ", i, s) + tail
                            for s in range(CARD.sectors_per_page))
            dev.write_page(PageAddress(i % 4, 0, i // 4), page)
            del page
    assert mem.held < 2 * 2**20


# ---- a whole page equal to the previous whole page is stored once -----------

def stored(dev, addr):
    """The device's stored form of a programmed page."""
    return dev._banks[addr.bank][addr.block].pages[addr.page]


def head_pages(g):
    """Lists of pages of profile `g`, each a head of 0 to page-size bytes
    followed by zeros: heads around a read unit's stored head and around
    the unit and page ends, some of them ending in zero bytes."""
    ends = sorted({0, 1, 11, 12, 63, 64, 65, g.read_unit, g.read_unit + 64,
                   g.page_size - 1, g.page_size})
    def head(size, zeros, seed):
        zeros = min(zeros, size)
        return random.Random(seed).randbytes(size - zeros) + bytes(zeros)

    return st.lists(st.builds(head,
                              st.sampled_from(ends) | st.integers(0, g.page_size),
                              st.integers(0, 3), st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=6)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_heads_followed_by_zeros_are_stored_short_and_read_back(profile):
    g = PROFILES[profile]

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(head_pages(g), st.integers(0, 2**32 - 1))
    def check(heads, seed):
        rng = random.Random(seed)
        spares = [rng.randbytes(rng.randrange(g.spare_per_page + 1))
                  for _ in heads]
        pages = [head + bytes(g.page_size - len(head)) for head in heads]
        looped, synth = SimFlashDevice(g), SimFlashDevice(g)
        for p, (page, spare) in enumerate(zip(pages, spares)):
            looped.write_page(PageAddress(1, 2, p), page, spare)
        synth.program_block(1, 2, heads, spares)
        addrs = [PageAddress(1, 2, p) for p in range(len(heads))]
        forms = [stored(synth, a) for a in addrs]
        assert forms == [stored(looped, a) for a in addrs]
        assert ([type(f) for f in forms]
                == [type(stored(looped, a)) for a in addrs])
        for page, form in zip(pages, forms):
            short = page[:synth._head].rstrip(b"\0")
            if page.startswith(short + bytes(g.page_size - len(short))):
                assert type(form) is bytes and form == short
                assert len(form) <= synth._head and not form.endswith(b"\0")
        written = dict(zip(addrs, zip(pages, spares)))
        assert_reads_back(synth, written)
        with tempfile.TemporaryDirectory() as tmp:
            saved, again = Path(tmp) / "f.img", Path(tmp) / "g.img"
            synth.save_image(saved)
            copy = SimFlashDevice.load_image(saved)
            copy.save_image(again)
            assert again.read_bytes() == saved.read_bytes()
        assert [stored(copy, a) for a in addrs] == forms
        assert_reads_back(copy, written)

    check()


def test_equal_whole_pages_in_a_row_share_one_stored_page():
    dev = tiny_device()
    a, b, c, d, e = (PageAddress(0, 0, p) for p in range(5))
    dev.write_page(a, page_of(7))
    dev.write_page(b, page_of(7))
    assert stored(dev, b) is stored(dev, a)
    header = bytes([9]) + bytes(PAGE - 1)        # stored sparse: no break
    dev.write_page(c, header)
    dev.write_page(d, page_of(7))
    assert stored(dev, d) is stored(dev, a)
    dev.write_page(e, page_of(8))                 # a different page breaks it
    dev.write_page(PageAddress(0, 0, 5), page_of(7))
    again = stored(dev, PageAddress(0, 0, 5))
    assert again == stored(dev, a) and again is not stored(dev, a)
    for addr, data in ((a, page_of(7)), (b, page_of(7)), (c, header),
                       (d, page_of(7)), (e, page_of(8))):
        assert dev.read_page(addr)[0] == data


def test_a_caller_buffer_changed_after_the_write_leaves_the_page_as_written():
    dev = tiny_device()
    buf = bytearray(page_of(7))
    dev.write_page(PageAddress(0, 0, 0), buf)
    dev.write_page(PageAddress(0, 0, 1), buf)
    buf[:] = page_of(9)
    dev.write_page(PageAddress(0, 0, 2), buf)
    buf[0] = 1
    assert [dev.read_page(PageAddress(0, 0, p))[0] for p in range(3)] == \
        [page_of(7), page_of(7), page_of(9)]


def test_erasing_the_first_copy_leaves_the_second_readable():
    dev = tiny_device()
    first, second = PageAddress(0, 0, 0), PageAddress(1, 0, 0)
    dev.write_page(first, page_of(7))
    dev.write_page(second, page_of(7))
    assert stored(dev, second) is stored(dev, first)
    dev.erase_block(0, 0)
    assert dev.read_page(first)[0] == b"\xff" * PAGE
    assert dev.read_page(second)[0] == page_of(7)
    dev.write_page(first, page_of(7))
    assert dev.read_page(first)[0] == page_of(7)


def test_image_round_trip_of_shared_pages(tmp_path):
    dev = tiny_device()
    written = {}
    for i, byte in enumerate((7, 7, 7, 8, 7, 7, 9, 9)):
        addr = PageAddress(0, 0, i)
        dev.write_page(addr, page_of(byte), bytes([i]))
        written[addr] = (page_of(byte), bytes([i]))
    dev.save_image(tmp_path / "f.img")
    copy = SimFlashDevice.load_image(tmp_path / "f.img")
    # loading stores the pages in the order written: four runs, four pages
    assert len({id(stored(copy, addr)) for addr in written}) == 4
    copy.save_image(tmp_path / "g.img")               # before reads move the clock
    assert (tmp_path / "g.img").read_bytes() == (tmp_path / "f.img").read_bytes()
    assert_reads_back(copy, written)


def test_card512_clean_shutdown_stores_its_checkpoint_chain_in_a_few_mib():
    # a fresh card's map is one repeated word, so its chain pages repeat
    eng = Engine.start(EngineConfig(profile="card512"))
    with traced_memory() as mem:
        eng.shutdown(clean=True)
    assert eng.device.device_stats().pages_written > 1000
    assert mem.held <= 4 * 2**20


def test_page_address_is_an_immutable_named_tuple():
    addr = PageAddress(1, 2, 3)
    assert repr(addr) == "PageAddress(bank=1, block=2, page=3)"
    assert (addr.bank, addr.block, addr.page) == (1, 2, 3)
    assert addr == PageAddress(1, 2, 3) == (1, 2, 3)
    assert len({addr, PageAddress(1, 2, 3)}) == 1
    with pytest.raises(AttributeError):
        addr.page = 4
    assert TINY.split_ppn(TINY.ppn(3, 15, 7)) == PageAddress(3, 15, 7)


@pytest.mark.parametrize("geometry", [TINY, PROFILES["desk8"]],
                         ids=["tiny", "desk8"])
def test_every_out_of_range_address_is_rejected(geometry):
    g = geometry
    banks = (-g.num_banks - 1, -1, g.num_banks, g.num_banks + 1)
    blocks = (-g.blocks_per_bank, -1, g.blocks_per_bank, g.blocks_per_bank + 5)
    pages = (-g.pages_per_block, -1, g.pages_per_block, 2 * g.pages_per_block)
    data = b"\x01" * g.page_size
    dev = SimFlashDevice(g)
    bad_pairs = ([(b, 0) for b in banks] + [(0, blk) for blk in blocks]
                 + [(b, blk) for b in banks for blk in blocks])
    for bank, block in bad_pairs:
        for call in (lambda: dev.erase_block(bank, block),
                     lambda: dev.block_state(bank, block),
                     lambda: dev.written_prefix(bank, block),
                     lambda: SimFlashDevice(g, bad_blocks=[(bank, block)])):
            with pytest.raises(AddressError):
                call()
    # a PageAddress and a plain (bank, block, page) tuple alike
    last = (g.num_banks - 1, g.blocks_per_bank - 1)
    addrs = [(bank, block, 0) for bank, block in bad_pairs]
    addrs += [(bank, block, page) for bank, block in ((0, 0), last)
              for page in pages]
    for bank, block, page in addrs:
        for addr in (PageAddress(bank, block, page), (bank, block, page)):
            for call in (lambda: dev.write_page(addr, data),
                         lambda: dev.read_page(addr),
                         lambda: dev.corrupt_spare(addr)):
                with pytest.raises(AddressError):
                    call()
    # nothing was touched, and the corners still serve
    assert dev.device_stats().requests_accepted == 0
    for bank, block in ((0, 0), last):
        dev.write_page(PageAddress(bank, block, 0), data)
        assert dev.read_page(PageAddress(bank, block, 0))[0] == data
