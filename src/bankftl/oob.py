"""On-flash byte layouts: the spare-area record and the tagged section framing.

Every programmed page carries [type:1][lpn:4][seq:8][crc:4] = 17 bytes in its
spare area: block-type flag, owning logical page number, global write sequence
number, and a CRC-32 of the page payload for torn-write detection.

Checkpoint payloads and flash images are both sequences of little-endian
sections [tag:4][len:4][crc32:4][bytes], written and read only here.
"""

import struct
import zlib

TYPE_DATA = 0x0D
TYPE_CHECKPOINT = 0x0C

LPN_NONE = 0xFFFFFFFF

_SPARE = struct.Struct("<BIQI")
SPARE_BYTES = _SPARE.size  # 17

_SECT = struct.Struct("<4sII")


def encode_spare(block_type, lpn, seq, page_data):
    crc = zlib.crc32(page_data) & 0xFFFFFFFF
    return _SPARE.pack(block_type, lpn, seq, crc)


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
