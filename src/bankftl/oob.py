"""On-flash byte layouts: the spare-area record and the tagged section framing.

Every programmed page carries [type:1][lpn:4][seq:8][crc:4] = 17 bytes in its
spare area: block-type flag, owning logical page number, global write sequence
number, and a CRC-32 of the page payload for torn-write detection.

`encode_head_spares` encodes the spares of many pages at once when each page
is a short head followed by zeros (an aged card's pages). For a fixed length,
CRC-32 is affine over GF(2): the CRC of such a page is the zero page's CRC
XOR, for each head byte, the CRC change that byte alone makes at its
position. So one table per position and byte value, built once per page size
and head length from one CRC per head bit, turns each spare's CRC into one
lookup per head byte instead of a scan of the page.

Checkpoint payloads and flash images are both sequences of little-endian
sections [tag:4][len:4][crc32:4][bytes], written and read only here.
"""

import struct
import zlib
from functools import lru_cache

import numpy as np

TYPE_DATA = 0x0D
TYPE_CHECKPOINT = 0x0C

LPN_NONE = 0xFFFFFFFF

_SPARE = struct.Struct("<BIQI")
SPARE_BYTES = _SPARE.size  # 17

# `_SPARE` as a packed numpy record, for encoding spares in bulk
_SPARE_RECORD = np.dtype([("type", "u1"), ("lpn", "<u4"), ("seq", "<u8"),
                          ("crc", "<u4")])
assert _SPARE_RECORD.itemsize == SPARE_BYTES

_SECT = struct.Struct("<4sII")


def encode_spare(block_type, lpn, seq, page_data):
    crc = zlib.crc32(page_data) & 0xFFFFFFFF
    return _SPARE.pack(block_type, lpn, seq, crc)


@lru_cache(maxsize=16)
def _head_crc_table(page_size, head_len):
    """The CRC-32 of `page_size` zero bytes, and a (head_len, 256) uint32
    table: row p, column b is what byte value b at position p XORs into it."""
    page = bytearray(page_size)
    zero_crc = zlib.crc32(page)
    bit_crcs = np.empty((head_len, 8), dtype=np.uint32)
    for pos in range(head_len):
        for bit in range(8):
            page[pos] = 1 << bit
            bit_crcs[pos, bit] = zlib.crc32(page) ^ zero_crc
        page[pos] = 0
    # a byte's change is the XOR of the changes of its set bits
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    table = np.bitwise_xor.reduce(
        np.where(bits[None, :, :] == 1, bit_crcs[:, None, :], 0), axis=2)
    table = table.astype(np.uint32)
    table.flags.writeable = False       # shared by every caller
    return zero_crc, table


def encode_head_spares(block_type, lpns, seqs, heads, page_size):
    """The spares `encode_spare` returns for pages that are each a row of
    `heads` (an (n, k) uint8 array, k <= page_size) followed by zeros up to
    `page_size` bytes, with the i-th page's lpn and sequence number from
    `lpns` and `seqs`: a list of n 17-byte `bytes`, byte for byte equal."""
    heads = np.asarray(heads, dtype=np.uint8)
    n, head_len = heads.shape
    if head_len > page_size:
        raise ValueError(f"a {head_len}-byte head exceeds a {page_size}-byte page")
    zero_crc, table = _head_crc_table(page_size, head_len)
    crcs = np.full(n, zero_crc, dtype=np.uint32)
    for pos in range(head_len):
        crcs ^= table[pos, heads[:, pos]]
    records = np.empty(n, dtype=_SPARE_RECORD)
    records["type"] = block_type
    records["lpn"] = lpns
    records["seq"] = seqs
    records["crc"] = crcs
    # each record as an opaque item: one `bytes` of its 17 bytes
    return records.view(f"V{SPARE_BYTES}").tolist()


def decode_spare(spare, page_data=None):
    """Return (block_type, lpn, seq) or None if unparseable / CRC mismatch.

    An erased (all-ones) spare never parses: 0xFF is not a known type flag.
    """
    if len(spare) < SPARE_BYTES:
        return None
    block_type, lpn, seq, crc = _SPARE.unpack_from(spare)
    if block_type not in (TYPE_DATA, TYPE_CHECKPOINT):
        return None
    if page_data is not None and (zlib.crc32(page_data) & 0xFFFFFFFF) != crc:
        return None
    return block_type, lpn, seq


def pack_sections(sections):
    """Frame (tag, bytes) pairs, in order, as one payload."""
    out = bytearray()
    for tag, blob in sections:
        out += _SECT.pack(tag, len(blob), zlib.crc32(blob) & 0xFFFFFFFF)
        out += blob
    return bytes(out)


def framed_length(sizes):
    """The length of the `pack_sections` payload of blobs of these sizes."""
    return sum(_SECT.size + n for n in sizes)


def unpack_sections(payload, sizes, error):
    """The blobs of a framed payload, in the order of `sizes`, a mapping of
    tag to its required length (None for any). The payload must hold exactly
    those tags, once each, whole, matching their CRCs and lengths; anything
    else raises `error`. A memoryview payload yields views."""
    found = {}
    pos = 0
    while pos < len(payload):
        if len(payload) - pos < _SECT.size:
            raise error("truncated section header")
        tag, length, crc = _SECT.unpack_from(payload, pos)
        pos += _SECT.size + length
        blob = payload[pos - length:pos]
        if len(blob) != length or (zlib.crc32(blob) & 0xFFFFFFFF) != crc:
            raise error(f"section {tag!r} truncated or corrupt")
        if tag not in sizes or tag in found:
            raise error(f"section {tag!r} unexpected or repeated")
        if sizes[tag] not in (None, length):
            raise error(f"section {tag!r} holds {length} bytes, not {sizes[tag]}")
        found[tag] = blob
    if len(found) != len(sizes):
        raise error(f"missing sections {[t for t in sizes if t not in found]}")
    return [found[tag] for tag in sizes]
