import random
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from bankftl.engine import Engine, EngineConfig
from bankftl.ftl_state import UNMAPPED
from bankftl.gc_engine import GcPolicy
from bankftl.io_engine import EngineParams
from bankftl.oob import TYPE_DATA, encode_spare
from bankftl.sim_flash import FlashGeometry, LatencyModel, PageAddress, SimFlashDevice

TINY = FlashGeometry(2, 2, 16, 8, 2048, 32, 256)


def tiny_device(bad_blocks=(), model=None):
    return SimFlashDevice(TINY, model or LatencyModel(), bad_blocks)


def tiny_engine(policy=None, queues=4, buffers=8, seed=0, image_path=None,
                export_ratio=0.875, levels=None, profile="tiny"):
    cfg = EngineConfig(
        profile=profile,
        io=EngineParams(num_queues=queues, num_buffers=buffers),
        policy=policy or GcPolicy(kind="PLLGC", max_gc_threads=1),
        seed=seed, image_path=image_path, export_ratio=export_ratio,
        levels=levels)
    return Engine.start(cfg)


@contextmanager
def traced_memory():
    """Trace Python allocations over the block. The yielded object's `held`
    (bytes still allocated at the end) and `peak` (the most allocated at
    once) are set when the block ends, both counted from its start."""
    mem = SimpleNamespace(held=None, peak=None)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        yield mem
        held, peak = tracemalloc.get_traced_memory()
        mem.held, mem.peak = held - base, peak - base
    finally:
        tracemalloc.stop()


def sector_payload(tag, size):
    rng = random.Random(repr(tag))
    return bytes(rng.getrandbits(8) for _ in range(min(size, 16))) + b"\x00" * max(0, size - 16)


class ShadowBlockDevice:
    """Dict-backed oracle for read-your-writes checks against the engine."""

    def __init__(self, sector_size):
        self.sector_size = sector_size
        self.acked = {}

    def write(self, lsn, data):
        self.acked[lsn] = bytes(data)

    def expected(self, lsn):
        return self.acked.get(lsn, b"\x00" * self.sector_size)


def synth_block(eng, bank, block, valid_lpns, fill_pages=None):
    """Write one block directly: the first len(valid_lpns) pages become the
    live copies of those lpns, remaining pages up to fill_pages are stale
    duplicates. State tables are updated like an aged image."""
    g = eng.device.geometry
    state = eng.state
    fill = g.pages_per_block if fill_pages is None else fill_pages
    assert len(valid_lpns) <= fill <= g.pages_per_block
    taken = state.alloc_specific_block(bank, block)
    assert taken, f"block {block} not free in bank {bank}"
    gblock = bank * g.blocks_per_bank + block
    for page in range(fill):
        if page < len(valid_lpns):
            lpn = valid_lpns[page]
            seq = state.next_sequence()
            live = True
        else:
            lpn = valid_lpns[0] if valid_lpns else 0
            seq = 0   # stale: below every live sequence
            live = False
        data = sector_payload((lpn, seq), g.page_size)
        eng.device.write_page(PageAddress(bank, block, page), data,
                              encode_spare(TYPE_DATA, lpn, seq, data),
                              submit_us=eng.sched.now)
        if live:
            ppn = g.ppn(bank, block, page)
            old = state.map_update_locked(lpn, ppn)
            state.mark_valid(ppn)
            if old != UNMAPPED:
                state.mark_invalid(old)
    return gblock


@pytest.fixture
def engine():
    eng = tiny_engine()
    yield eng
    if eng.live:
        eng.shutdown(clean=True)
