"""Simulated multi-bank NAND flash card.

Models the raw card the FTL drives: interfaces (channels) of banks, blocks of
sequentially-programmable pages with spare bytes, one bus per interface, one
read queue per two consecutive banks, and a configurable latency model.
`write_page`, `read_page` and `erase_block` are the one request path: each
acts at once, is charged on virtual clocks from its caller's `submit_us`, and
returns its wait, the microseconds from `submit_us` to its completion, for
the caller to yield (`read_page` returns it after the data and spare). The
submit time is the caller's, so actors on different schedulers can share one
device. `request_log`, when enabled, records each request's id (its place
among the requests the card has accepted, which a saved image carries on),
submit and completion times. A page address is unpacked as a
`(bank, block, page)` 3-tuple, so a `PageAddress` and a plain tuple make the
same request.
`peek_page` and `program_block` are not requests and move no clock, counter
or log: `peek_page` returns what a `read_page` of the same window would, for
checks that must not move the model they check, and `program_block`
synthesizes an erased block's pages for an aged card from each page's head
(the zeros after it are implied), stored and counted as `write_page` would
store and count the full pages. A rejected request or synthesis changes
nothing, not even an untouched block's record. Once checked, a request is
charged by `_service` on plain ints: each bank's interface comes from a
table built with the device, and banks 2i and 2i+1 share read queue i. A
request first occupies its interface's bus (a read also its read queue) for
a transfer slice, then its bank for an execution slice, so requests on
different banks overlap while requests sharing a bus, read queue or bank
serialize, and can complete out of submission order. A read queue's wait
binds only when its two banks sit on different interfaces (an odd
`banks_per_interface`); otherwise the shared bus already orders them.

State mutates at request acceptance; timestamps are accounting. Erase resets a
block to all-ones and pages must be programmed strictly in order, never twice.
A stored page is immutable, so the device keeps no CRC of its own: a torn
page is caught by the data CRC in its spare (`oob.decode_spare`).

A programmed page keeps only the bytes that carry data. A page that is all
zero past its first read unit's first `_HEAD` bytes (its head) is stored as
one short `bytes`: the page up to its last non-zero byte, empty for a zero
page. A page whose last read unit has a non-zero byte past the unit's first
`_HEAD` bytes is stored whole, as `bytes`; telling costs a dense page two
compares, each stopping at the first non-zero byte it meets. A page stored
whole that equals the previous page the device stored whole shares that
page's `bytes` object, which one more compare tells: stored pages are never
changed in place, and equal pages come in runs (the checkpoint chain of a
mostly unmapped map, a fill pattern written page after page), so a run
costs one page of memory. Any other page is stored as a tuple of pieces,
each read unit's head then its tail (the rest), up to the last piece that
holds data; a tail that is all zero is one shared zero run. One unpack
takes every head, and one compare of the page against its heads joined by
zero runs tells whether every tail is zero. A read joins only the pieces of
its window, and the bytes a short `bytes` or a cut tuple no longer holds
read back as zeros; an image holds whole pages, and loading stores them by
the same rule. So headers followed by zeros (aged pages, the benchmark's
sectors) cost a few dozen bytes per read unit instead of a whole page, and
every read returns the bytes written.

A block's state is created the first time the block is programmed, erased,
marked bad or loaded from an image; until then it reads as erased, with erase
count 0. So the paper's full card (card512, 262,144 blocks) builds in
milliseconds and holds only the blocks a run touches. Erased reads return
slices of one shared all-ones page and spare per device.

A flash image is the magic `BFTLIMG2` and sections in the checkpoint's
framing (`oob.pack_sections`). Loading only parses bytes; any malformed image,
`BFTLIMG1` images of earlier versions included, raises ConfigurationError.
"""

import struct
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

from . import oob
from .errors import (AddressError, BadBlockError, ConfigurationError,
                     OverwriteViolation, SequencingViolation)

# bytes kept at the start of a read unit stored sparse; the largest header the
# simulator writes into a unit is the checkpoint chain's 30 bytes
_HEAD = 64


@dataclass(frozen=True)
class FlashGeometry:
    num_interfaces: int
    banks_per_interface: int
    blocks_per_bank: int
    pages_per_block: int
    page_size: int
    spare_per_page: int
    read_unit: int
    erase_cycles_limit: int = 100_000

    @property
    def num_banks(self):
        return self.num_interfaces * self.banks_per_interface

    @property
    def total_blocks(self):
        return self.num_banks * self.blocks_per_bank

    @property
    def total_pages(self):
        return self.total_blocks * self.pages_per_block

    @property
    def sectors_per_page(self):
        return self.page_size // self.read_unit

    def validate(self):
        for name in ("num_interfaces", "banks_per_interface", "blocks_per_bank",
                     "pages_per_block", "page_size", "spare_per_page",
                     "read_unit", "erase_cycles_limit"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.page_size % self.read_unit != 0:
            raise ConfigurationError("page_size must be a multiple of read_unit")
        if self.spare_per_page < oob.SPARE_BYTES:
            raise ConfigurationError(
                f"spare_per_page must hold {oob.SPARE_BYTES} metadata bytes")
        # the FTL map's unmapped sentinel is the all-ones 31-bit pattern, so
        # every physical page number must stay below it
        if self.total_pages >= (1 << 31) - 1:
            raise ConfigurationError("total pages must fit in 31 bits")
        return self

    def ppn(self, bank, block, page):
        return (bank * self.blocks_per_bank + block) * self.pages_per_block + page

    def split_ppn(self, ppn):
        page = ppn % self.pages_per_block
        blk = ppn // self.pages_per_block
        return PageAddress(blk // self.blocks_per_bank, blk % self.blocks_per_bank, page)


class PageAddress(NamedTuple):
    """A page's place on the card. Immutable and hashable; as a named
    tuple it also equals the plain tuple `(bank, block, page)`."""

    bank: int
    block: int
    page: int


@dataclass(frozen=True)
class LatencyModel:
    """Whole-op latencies plus per-queue service discipline split.

    transfer occupies the DMA queue, exec occupies the bank; transfer + exec
    equals the headline figure (write 200us/page, read 100us/unit, erase 2ms).
    """
    write_page_us: int = 200
    read_unit_us: int = 100
    erase_block_us: int = 2000
    write_transfer_us: int = 20
    read_transfer_us: int = 80
    erase_transfer_us: int = 2

    def validate(self):
        # device clocks and image counters are whole microseconds, and a
        # negative transfer would move the bus clock back
        for total, transfer in (("write_page_us", "write_transfer_us"),
                                ("read_unit_us", "read_transfer_us"),
                                ("erase_block_us", "erase_transfer_us")):
            for name in (total, transfer):
                if not isinstance(getattr(self, name), int):
                    raise ConfigurationError(
                        f"{name} must be a whole number of microseconds")
            if getattr(self, total) <= 0:
                raise ConfigurationError(f"{total} must be positive")
            if not 0 <= getattr(self, transfer) < getattr(self, total):
                raise ConfigurationError(
                    f"{transfer} must be at least 0 and below {total}")
        return self


@dataclass
class DeviceStats:
    pages_written: int = 0
    read_ops: int = 0
    read_units: int = 0
    blocks_erased: int = 0
    requests_accepted: int = 0
    wear_events: int = 0
    # always 0: stored pages never change (torn pages fail their spare CRC);
    # kept because images and the tier-1 digests carry every counter
    parity_errors: int = 0
    erase_counts_per_bank: list = field(default_factory=list)
    wear_flagged_blocks: list = field(default_factory=list)


class _Block:
    __slots__ = ("erase_count", "next_writable_page", "is_bad", "wear_flagged",
                 "pages", "spares")

    def __init__(self, pages_per_block):
        self.erase_count = 0
        self.next_writable_page = 0
        self.is_bad = False
        self.wear_flagged = False
        self.pages = [None] * pages_per_block
        self.spares = [None] * pages_per_block


class SimFlashDevice:
    def __init__(self, geometry, model=None, bad_blocks=()):
        self.geometry = geometry.validate()
        self.model = (model or LatencyModel()).validate()
        g = self.geometry
        # address limits as plain ints (`num_banks` is a computed property)
        self._num_banks = g.num_banks
        self._blocks_per_bank = g.blocks_per_bank
        self._pages_per_block = g.pages_per_block
        self._page_size = g.page_size
        self._read_unit = g.read_unit
        # None until the block is first touched (see _block)
        self._banks = [[None] * g.blocks_per_bank for _ in range(g.num_banks)]
        self._bad_blocks = set()
        self.erased_page = b"\xff" * g.page_size
        self.erased_spare = b"\xff" * g.spare_per_page
        # the stored-page form (_store, _window): zero runs, the unpackers
        # of every unit's head and tail, and the last page stored whole
        head = self._head = min(_HEAD, g.read_unit)
        self._zero_head = bytes(head)
        self._zero_rest = bytes(g.page_size - head)
        self._zero_tail = bytes(g.read_unit - head)
        self._zero_page = memoryview(bytes(g.page_size))
        units = g.sectors_per_page
        self._heads = struct.Struct(f"{head}s{g.read_unit - head}x" * units)
        self._tails = struct.Struct(f"{head}x{g.read_unit - head}s" * units)
        self._last_whole = None
        for bank, block in bad_blocks:
            self._check_block(bank, block)
            self._mark_bad(bank, block)
        # the request path's tables (_service): each bank's interface, and
        # each kind's transfer and execution slices
        self._bank_itf = [bank // g.banks_per_interface
                          for bank in range(g.num_banks)]
        m = self.model
        self._slices = {
            kind: (transfer, total - transfer) for kind, transfer, total in (
                ("write", m.write_transfer_us, m.write_page_us),
                ("erase", m.erase_transfer_us, m.erase_block_us),
                ("read", m.read_transfer_us, m.read_unit_us))}
        # every transfer occupies its interface's bus; a read queue's two
        # banks sit on different interfaces when banks_per_interface is odd
        self.bus_free_at = [0] * g.num_interfaces
        self.read_queue_free_at = [0] * ((g.num_banks + 1) // 2)
        self.bank_free_at = [0] * g.num_banks
        self.now_us = 0
        self._stats = DeviceStats(erase_counts_per_bank=[0] * g.num_banks)
        self.request_log = None  # list of rows when enabled

    # ---- addressing / validation -------------------------------------

    def _check_block(self, bank, block):
        if not (0 <= bank < self._num_banks and 0 <= block < self._blocks_per_bank):
            raise AddressError(f"bank {bank} block {block} out of range")

    def _check_addr(self, bank, block, page):
        self._check_block(bank, block)
        if not (0 <= page < self._pages_per_block):
            raise AddressError(f"page {page} out of range")

    def _block(self, bank, block):
        """The block's state, created on first touch."""
        blk = self._banks[bank][block]
        if blk is None:
            blk = self._banks[bank][block] = _Block(self.geometry.pages_per_block)
        return blk

    def _mark_bad(self, bank, block):
        self._block(bank, block).is_bad = True
        self._bad_blocks.add((bank, block))

    # ---- timing --------------------------------------------------------

    def _service(self, kind, bank, block, page, submit_us, units=1):
        """Charge an accepted request on the virtual clocks, log it and
        return its wait: its completion time less `submit_us`."""
        now = self.now_us
        if submit_us is None:
            submit_us = now
        itf = self._bank_itf[bank]
        start = self.bus_free_at[itf]
        if start < submit_us:
            start = submit_us
        transfer, execute = self._slices[kind]
        if kind == "read":
            queue = bank >> 1
            if start < self.read_queue_free_at[queue]:
                start = self.read_queue_free_at[queue]
            transfer *= units
            execute *= units
            self.read_queue_free_at[queue] = start + transfer
        start += transfer
        self.bus_free_at[itf] = start
        done = self.bank_free_at[bank]
        if done < start:
            done = start
        done += execute
        self.bank_free_at[bank] = done
        if done > now:
            self.now_us = done
        stats = self._stats
        rid = stats.requests_accepted
        stats.requests_accepted = rid + 1
        if self.request_log is not None:
            self.request_log.append(
                (rid, kind, bank, block, page, submit_us, done))
        return done - submit_us

    # ---- stored-page form -------------------------------------------------

    def _store(self, data):
        """The stored form of page bytes `data` (see the module docstring)."""
        head, zero_tail = self._head, self._zero_tail
        if data.startswith(self._zero_rest, head):
            return data[:head].rstrip(b"\0")
        if not data.endswith(zero_tail):
            if data != self._last_whole:
                self._last_whole = data
            return self._last_whole
        heads = self._heads.unpack(data)
        pieces = [None, zero_tail] * len(heads)
        pieces[::2] = heads
        # one compare tells whether every tail is zero (the usual case)
        if not data.startswith(zero_tail.join(heads)):
            pieces[1::2] = [zero_tail if t == zero_tail else t
                            for t in self._tails.unpack(data)]
        # some piece past the first head is non-zero, so this stops
        zero_head = self._zero_head
        while pieces[-1] is zero_tail or pieces[-1] == zero_head:
            pieces.pop()
        return tuple(pieces)

    def _window(self, stored, offset, length):
        """`length` bytes of a stored page from `offset`, both unit-aligned."""
        if type(stored) is bytes:
            data = stored[offset:offset + length]
        else:
            first = 2 * offset // self.geometry.read_unit
            data = b"".join(
                stored[first:first + 2 * length // self.geometry.read_unit])
        return data if len(data) == length else data + self._zero_page[len(data):length]

    # ---- requests ------------------------------------------------------

    def write_page(self, addr, data, spare=b"", submit_us=None):
        bank, block, page = addr
        if not (0 <= bank < self._num_banks and 0 <= block < self._blocks_per_bank
                and 0 <= page < self._pages_per_block):
            self._check_addr(bank, block, page)
        # a rejected request leaves an untouched block untouched
        blk = self._banks[bank][block]
        if blk is not None and blk.is_bad:
            raise BadBlockError(f"bank {bank} block {block} is bad")
        if len(data) != self._page_size:
            raise AddressError("write payload must be one full page")
        if len(spare) > self.geometry.spare_per_page:
            raise AddressError("spare payload exceeds spare area")
        written = 0 if blk is None else blk.next_writable_page
        if page < written:
            raise OverwriteViolation(
                f"page {page} already written in block {block}")
        if page > written:
            raise SequencingViolation(f"expected page {written}, got {page}")
        if blk is None:
            blk = self._block(bank, block)
        blk.pages[page] = self._store(bytes(data))
        blk.spares[page] = bytes(spare)
        blk.next_writable_page = page + 1
        self._stats.pages_written += 1
        return self._service("write", bank, block, page, submit_us)

    def peek_page(self, addr, offset=0, length=None):
        """The data and full spare a `read_page` of the same window returns,
        looked up with no request: no clock, counter or log row moves. For
        checks that must leave the card's timing as they found it."""
        bank, block, page = addr
        if not (0 <= bank < self._num_banks and 0 <= block < self._blocks_per_bank
                and 0 <= page < self._pages_per_block):
            self._check_addr(bank, block, page)
        page_size = self._page_size
        if length is None:
            length = page_size - offset
        if offset < 0 or length < 0 or offset + length > page_size:
            raise AddressError("read window outside page")
        unit = self._read_unit
        if length % unit or offset % unit:
            raise AddressError("reads are read_unit granular")
        blk = self._banks[bank][block]
        stored = None if blk is None else blk.pages[page]
        if stored is None:
            return self.erased_page[:length], self.erased_spare
        raw = blk.spares[page]
        return (self._window(stored, offset, length),
                raw + self.erased_spare[len(raw):])

    def read_page(self, addr, offset=0, length=None, want_spare=False,
                  submit_us=None):
        data, spare = self.peek_page(addr, offset, length)
        units = len(data) // self._read_unit or 1
        stats = self._stats
        stats.read_ops += 1
        stats.read_units += units
        bank, block, page = addr
        wait = self._service("read", bank, block, page, submit_us, units)
        return data, (spare if want_spare else b""), wait

    def erase_block(self, bank, block, submit_us=None):
        self._check_block(bank, block)
        blk = self._block(bank, block)
        if blk.is_bad:
            raise BadBlockError(f"bank {bank} block {block} is bad")
        n = self.geometry.pages_per_block
        blk.pages = [None] * n
        blk.spares = [None] * n
        blk.next_writable_page = 0
        blk.erase_count += 1
        if blk.erase_count > self.geometry.erase_cycles_limit and not blk.wear_flagged:
            blk.wear_flagged = True
            self._stats.wear_events += 1
            self._stats.wear_flagged_blocks.append((bank, block))
        self._stats.blocks_erased += 1
        self._stats.erase_counts_per_bank[bank] += 1
        return self._service("erase", bank, block, 0, submit_us)

    # ---- synthesis --------------------------------------------------------

    def program_block(self, bank, block, heads, spares):
        """Program pages 0..n-1 of an erased, good block, page i being
        `heads[i]` followed by zeros up to a full page (a head may be a full
        page), with `spares[i]`. The pages are stored and counted as n
        `write_page` calls would store and count them, request ids
        included, and a request `write_page` would reject is rejected with
        its error and message. This is synthesis, not a device request: no
        bus, bank, queue or `now_us` clock moves and no request log row is
        written. It builds an aged card (`bench.inject_aging`), whose pages
        are short heads: a `bytes` head no longer than a read unit's stored
        head is stored as itself, cut after its last non-zero byte, so a
        head passed in that form is kept as given and costs no page; any
        other head is stored through `_store` of its full page. User IO
        programs through `write_page`."""
        self._check_block(bank, block)
        blk = self._banks[bank][block]
        if blk is not None and blk.is_bad:
            raise BadBlockError(f"bank {bank} block {block} is bad")
        if blk is not None and blk.next_writable_page:
            raise OverwriteViolation(
                f"bank {bank} block {block} is not erased")
        n = len(heads)
        if n > self._pages_per_block or len(spares) != n:
            raise AddressError(f"{n} pages and {len(spares)} spares for a "
                               f"{self._pages_per_block}-page block")
        if max(map(len, heads), default=0) > self._page_size:
            raise AddressError("write payload must be one full page")
        if max(map(len, spares), default=0) > self.geometry.spare_per_page:
            raise AddressError("spare payload exceeds spare area")
        # a `bytes` head that fits in the first read unit's head, cut after
        # its last non-zero byte, is the page's stored form: `_store` of the
        # page returns the same short `bytes`
        short, zero_page, store = self._head, self._zero_page, self._store
        blk = self._block(bank, block)
        blk.pages[:n] = [
            head.rstrip(b"\0") if type(head) is bytes and len(head) <= short
            else store(bytes(head) + zero_page[len(head):]) for head in heads]
        blk.spares[:n] = [spare if type(spare) is bytes else bytes(spare)
                          for spare in spares]
        blk.next_writable_page = n
        stats = self._stats
        stats.pages_written += n
        stats.requests_accepted += n

    # ---- introspection ---------------------------------------------------

    def device_stats(self):
        s = self._stats
        return replace(
            s,
            erase_counts_per_bank=list(s.erase_counts_per_bank),
            wear_flagged_blocks=list(s.wear_flagged_blocks),
        )

    def block_state(self, bank, block):
        self._check_block(bank, block)
        blk = self._banks[bank][block]
        if blk is None:
            return 0, 0, False, False
        return blk.erase_count, blk.next_writable_page, blk.is_bad, blk.wear_flagged

    def bad_block_set(self):
        return set(self._bad_blocks)

    def written_prefix(self, bank, block):
        self._check_block(bank, block)
        blk = self._banks[bank][block]
        return 0 if blk is None else blk.next_writable_page

    def reset_clocks(self, now_us=0):
        """Rebase queue/bank virtual clocks (after synthetic state injection,
        which writes pages without simulating elapsed time)."""
        self.read_queue_free_at = [now_us] * len(self.read_queue_free_at)
        self.bank_free_at = [now_us] * self.geometry.num_banks
        self.bus_free_at = [now_us] * self.geometry.num_interfaces
        self.now_us = now_us

    def enable_request_log(self):
        self.request_log = []

    def export_request_log(self, path):
        with open(path, "w") as fh:
            fh.write("request_id,kind,bank,block,page,submit_ts_us,complete_ts_us\n")
            for row in self.request_log or ():
                fh.write(",".join(str(v) for v in row) + "\n")

    def corrupt_spare(self, addr):
        """Test hook: garble a written page's spare (simulated torn write)."""
        bank, block, page = addr
        self._check_addr(bank, block, page)
        blk = self._banks[bank][block]
        if blk is not None and blk.spares[page] is not None:
            blk.spares[page] = b"\x00" * len(blk.spares[page])

    # ---- persistence ------------------------------------------------------

    IMAGE_MAGIC = b"BFTLIMG2"

    def save_image(self, path):
        s = self._stats
        size = self.geometry.page_size
        blocks = bytearray()
        for bank, row in enumerate(self._banks):
            for block, blk in enumerate(row):
                if blk is None:
                    continue
                n = blk.next_writable_page
                blocks += _BLOCK.pack(bank, block, blk.erase_count, n,
                                      blk.is_bad, blk.wear_flagged)
                for page, spare in zip(blk.pages[:n], blk.spares[:n]):
                    blocks += self._window(page, 0, size)
                    blocks += _SPARE_LEN.pack(len(spare)) + spare
        counters = [self.now_us, *(getattr(s, k) for k in _COUNTERS),
                    *s.erase_counts_per_bank]
        profile = profile_dict(self.geometry, self.model, sorted(self._bad_blocks))
        with open(path, "wb") as fh:
            fh.write(self.IMAGE_MAGIC)
            fh.write(oob.pack_sections([
                (b"PROF", _profile_text(profile).encode()),
                (b"CNTR", struct.pack(f"<{len(counters)}Q", *counters)),
                (b"WEAR", b"".join(_PAIR.pack(*p) for p in s.wear_flagged_blocks)),
                (b"BLKS", blocks),
            ]))

    @classmethod
    def load_image(cls, path):
        """Rebuild a device from a `save_image` file; anything else raises
        ConfigurationError naming `path`."""
        with open(path, "rb") as fh:
            raw = fh.read()
        magic = cls.IMAGE_MAGIC
        if raw[:len(magic)] != magic:
            raise ConfigurationError(f"{path} is not a {magic.decode()} flash image")
        try:
            return cls._from_sections(memoryview(raw)[len(magic):])
        except (ValueError, KeyError, struct.error) as exc:
            raise ConfigurationError(f"{path}: malformed flash image: {exc}") from None

    @classmethod
    def _from_sections(cls, payload):
        prof, cntr, wear, blks = oob.unpack_sections(payload, _SECTIONS,
                                                     ValueError)
        dev = cls(*parse_profile(parse_key_values(str(prof, "utf-8").splitlines())))
        g = dev.geometry
        k = len(_COUNTERS)
        counters = struct.unpack(f"<{1 + k + g.num_banks}Q", cntr)
        flagged = list(_PAIR.iter_unpack(wear))
        for bank, block in flagged:
            dev._check_block(bank, block)
        dev.now_us = counters[0]
        dev._stats = DeviceStats(**dict(zip(_COUNTERS, counters[1:1 + k])),
                                 erase_counts_per_bank=list(counters[1 + k:]),
                                 wear_flagged_blocks=flagged)
        pos = 0

        def take(n):
            nonlocal pos
            chunk = bytes(blks[pos:pos + n])
            if len(chunk) != n:
                raise ValueError("block records truncated")
            pos += n
            return chunk

        stored = set()
        while pos < len(blks):
            bank, block, erases, prefix, bad, worn = _BLOCK.unpack(take(_BLOCK.size))
            dev._check_block(bank, block)
            if (bank, block) in stored:
                raise ValueError(f"bank {bank} block {block} stored twice")
            if prefix > g.pages_per_block:
                raise ValueError(f"bank {bank} block {block} has {prefix} pages")
            stored.add((bank, block))
            blk = dev._block(bank, block)
            blk.erase_count, blk.next_writable_page = erases, prefix
            blk.is_bad, blk.wear_flagged = bool(bad), bool(worn)
            if blk.is_bad:
                dev._bad_blocks.add((bank, block))
            for i in range(prefix):
                page = take(g.page_size)
                (n,) = _SPARE_LEN.unpack(take(_SPARE_LEN.size))
                if n > g.spare_per_page:
                    raise ValueError(f"bank {bank} block {block} page {i} "
                                     f"has a {n}-byte spare")
                blk.pages[i], blk.spares[i] = dev._store(page), take(n)
        return dev


# flash image sections: the profile text; the clock, the device counters and
# the per-bank erase counts; the wear-flagged blocks in flagging order; per
# stored block its bank, block, erase count, written prefix, bad and wear
# flags, then each page followed by its length-prefixed spare
_SECTIONS = dict.fromkeys((b"PROF", b"CNTR", b"WEAR", b"BLKS"))
_COUNTERS = tuple(f.name for f in fields(DeviceStats) if f.type is int)
_BLOCK = struct.Struct("<IIIIBB")
_SPARE_LEN = struct.Struct("<I")
_PAIR = struct.Struct("<QQ")


# ---- device profiles (text key-value) -------------------------------------

_GEOMETRY_KEYS = ("num_interfaces", "banks_per_interface", "blocks_per_bank",
                  "pages_per_block", "page_size", "spare_per_page", "read_unit",
                  "erase_cycles_limit")
_MODEL_KEYS = ("write_page_us", "read_unit_us", "erase_block_us",
               "write_transfer_us", "read_transfer_us", "erase_transfer_us")


def profile_dict(geometry, model, bad_blocks=()):
    d = {k: getattr(geometry, k) for k in _GEOMETRY_KEYS}
    d.update({k: getattr(model, k) for k in _MODEL_KEYS})
    d["bad_blocks"] = " ".join(f"{b}:{blk}" for b, blk in bad_blocks)
    return d


def _profile_int(d, key, default=None):
    value = d.get(key, default)
    if value is None:
        raise ConfigurationError(f"profile key {key!r} is missing")
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(f"profile key {key!r}: {value!r} is not a "
                                 f"valid int") from None


def parse_profile(d):
    geometry = FlashGeometry(**{k: _profile_int(d, k) for k in _GEOMETRY_KEYS})
    model = LatencyModel(**{k: _profile_int(d, k, getattr(LatencyModel, k))
                            for k in _MODEL_KEYS})
    bad = []
    for tok in str(d.get("bad_blocks", "")).split():
        bank, sep, block = tok.partition(":")
        try:
            if not sep:
                raise ValueError(tok)
            bad.append((int(bank), int(block)))
        except ValueError:
            raise ConfigurationError(
                f"bad block {tok!r} is not bank:block") from None
    return geometry.validate(), model.validate(), bad


def parse_key_values(lines):
    """`key = value` lines as a dict of stripped strings; `#` starts a
    comment and blank lines are skipped. Device profiles and engine config
    files share this format."""
    d = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        d[key.strip()] = value.strip()
    return d


def _profile_text(d):
    return "".join(f"{k} = {v}\n" for k, v in d.items())


def load_profile(path):
    """The profile in the file at `path`; a malformed one raises
    ConfigurationError naming `path`."""
    with open(path) as fh:
        d = parse_key_values(fh)
    try:
        return parse_profile(d)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def save_profile(path, geometry, model, bad_blocks=()):
    with open(path, "w") as fh:
        fh.write(_profile_text(profile_dict(geometry, model, bad_blocks)))


# Shipped profiles: the full 512GB production card and desk-scale variants. Desk profiles keep
# 8 sectors per page and 64 pages per block but shrink the page to 4KB so whole
# runs fit in memory; the latency model is unchanged.
PROFILES = {
    "card512": FlashGeometry(4, 16, 4096, 64, 32768, 512, 4096),
    "desk64": FlashGeometry(4, 16, 64, 64, 4096, 64, 512),
    "desk8": FlashGeometry(4, 2, 64, 64, 4096, 64, 512),
    "tiny": FlashGeometry(2, 2, 16, 8, 2048, 32, 256),
}


def make_device(profile="desk8", model=None, bad_blocks=()):
    return SimFlashDevice(PROFILES[profile], model, bad_blocks)
