"""The batch spare encoder against the one-page encoder it stands in for."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bankftl.ftl_state import UNMAPPED
from bankftl.oob import (SPARE_BYTES, TYPE_CHECKPOINT, TYPE_DATA,
                         encode_head_spares, encode_spare)
from bankftl.sim_flash import PROFILES

PAGE_SIZES = sorted({g.page_size for g in PROFILES.values()})
AGED_HEAD = struct.Struct("<IQ")      # an aged page's lpn and sequence number

lpns = st.integers(0, UNMAPPED - 1) | st.sampled_from([0, UNMAPPED - 1])
seqs = st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**64 - 1])
block_types = st.sampled_from([TYPE_DATA, TYPE_CHECKPOINT])


def one_by_one(block_type, pages, page_size):
    return [encode_spare(block_type, lpn, seq, head + bytes(page_size - len(head)))
            for lpn, seq, head in pages]


def batch(block_type, pages, head_len, page_size):
    heads = np.frombuffer(b"".join(head for _, _, head in pages),
                          dtype=np.uint8).reshape(len(pages), head_len)
    return encode_head_spares(block_type, [p[0] for p in pages],
                              [p[1] for p in pages], heads, page_size)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(block_types, st.sampled_from(PAGE_SIZES),
       st.lists(st.tuples(lpns, seqs), max_size=40))
def test_aged_head_spares_equal_the_full_page_encoding(block_type, page_size,
                                                       heads):
    pages = [(lpn, seq, AGED_HEAD.pack(lpn, seq)) for lpn, seq in heads]
    got = batch(block_type, pages, AGED_HEAD.size, page_size)
    assert got == one_by_one(block_type, pages, page_size)
    assert all(type(spare) is bytes and len(spare) == SPARE_BYTES
               for spare in got)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from(PAGE_SIZES), st.integers(0, 80).flatmap(
    lambda k: st.lists(st.tuples(lpns, seqs, st.binary(min_size=k, max_size=k)),
                       min_size=1, max_size=12)))
def test_any_head_spares_equal_the_full_page_encoding(page_size, pages):
    got = batch(TYPE_DATA, pages, len(pages[0][2]), page_size)
    assert got == one_by_one(TYPE_DATA, pages, page_size)
