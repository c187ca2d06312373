"""In-memory FTL tables.

Six structures cooperate: the page map (one 4-byte entry per exported
logical page), the per-bank free-block bitmap, per-block valid-page bitmaps
and counts, per-bank counters and flags, the GC victim index, and the buffer
lookup table. A monotone sequence counter stamps every flushed page's spare.

The victim index keeps, for each bank, one bucket per valid-page count
(0..pages_per_block) holding the bank's occupied blocks (neither free nor
bad) at that count, as a bitmask over the bank's block numbers, plus a
bitmask of the bank's non-empty buckets. The methods that change a block's
count or occupancy keep it in step; the open block stays indexed, and the
victim choice skips it. Code that writes the arrays directly calls
`recount()` afterwards, which re-derives every counter and the index.

Every caller is an actor on one cooperative scheduler, and each method runs
to completion within one scheduler step, so no method takes a lock. The
exclusions that must outlast a virtual wait are explicit state: each bank's
`gc_active`, `exclusive_gc` and `writers_active`. The `Engine` facade
drives that scheduler from one OS thread. audit() needs a quiescent engine.
"""

import numpy as np

from . import oob
from .errors import AddressError, AuditError, ExhaustionError

UNMAPPED = 0x7FFFFFFF          # all-ones in 31 bits; every ppn stays below it


class BankInfo:
    __slots__ = ("free_blocks", "valid_pages", "current_block",
                 "next_page", "gc_active", "exclusive_gc", "writers_active")

    def __init__(self, free_blocks):
        self.free_blocks = free_blocks
        self.valid_pages = 0
        self.current_block = None
        self.next_page = 0
        self.gc_active = False
        self.exclusive_gc = False
        self.writers_active = 0


class FtlState:
    def __init__(self, geometry, num_buffers=256, export_ratio=0.875,
                 bad_blocks=()):
        self.geometry = geometry
        self.num_lpns = int(geometry.total_pages * export_ratio)
        if self.num_lpns <= 0:
            raise AddressError("export ratio leaves no logical pages")
        g = geometry
        self.map = np.full(self.num_lpns, UNMAPPED, dtype=np.uint32)
        self.free_bits = np.ones((g.num_banks, g.blocks_per_bank), dtype=bool)
        self.bad_bits = np.zeros((g.num_banks, g.blocks_per_bank), dtype=bool)
        for bank, block in bad_blocks:
            self.free_bits[bank, block] = False
            self.bad_bits[bank, block] = True
        self.valid_bits = np.zeros((g.total_blocks, g.pages_per_block), dtype=bool)
        self.valid_count = np.zeros(g.total_blocks, dtype=np.int32)
        self.banks = [BankInfo(0) for _ in range(g.num_banks)]
        # buffer lookup: slot -> lpn (or None); reverse index for O(1) search
        self.buf_lookup = [None] * num_buffers
        self._lpn_to_slot = {}
        self._claims = set()
        self._seq = 0
        self.recount()

    # ---- map table -----------------------------------------------------

    def _check_lpn(self, lpn):
        if not (0 <= lpn < self.num_lpns):
            raise AddressError(f"lpn {lpn} outside exported capacity")

    def map_lookup(self, lpn):
        self._check_lpn(lpn)
        return int(self.map[lpn])

    def map_update_locked(self, lpn, new_ppn):
        """Point lpn at new_ppn; returns the previous ppn."""
        self._check_lpn(lpn)
        old = int(self.map[lpn])
        self.map[lpn] = new_ppn
        return old

    def map_update_if(self, lpn, expected_old, new_ppn):
        """CAS used by GC page moves: only retarget if nobody rewrote the lpn."""
        self._check_lpn(lpn)
        if int(self.map[lpn]) != expected_old:
            return False
        self.map[lpn] = new_ppn
        return True

    # ---- free-block bitmap ----------------------------------------------

    def alloc_free_block(self, bank):
        info = self.banks[bank]
        row = self.free_bits[bank]
        idx = np.flatnonzero(row)
        if idx.size == 0:
            raise ExhaustionError(f"bank {bank} has no free block")
        block = int(idx[0])
        row[block] = False
        info.free_blocks -= 1
        self._toggle_bucket(bank, block)
        return block

    def alloc_specific_block(self, bank, block):
        if not self.free_bits[bank, block]:
            return False
        self.free_bits[bank, block] = False
        self.banks[bank].free_blocks -= 1
        self._toggle_bucket(bank, block)
        return True

    def release_block(self, bank, block):
        """Return an erased block to the free pool."""
        if self.bad_bits[bank, block]:
            raise AddressError("bad block cannot be freed")
        if not self.free_bits[bank, block]:
            self.free_bits[bank, block] = True
            self.banks[bank].free_blocks += 1
            self._toggle_bucket(bank, block)

    def has_room(self, bank, reserve=0):
        """Whether alloc_page_in_bank(bank, reserve) can hand out a page: the
        open block, unless it is GC's last staging space and `reserve` keeps
        writers out of it, or a new block while more than `reserve` free
        blocks remain. The reserve guarantees collection can always stage
        its copies, so a full card cannot deadlock reclaim."""
        info = self.banks[bank]
        if info.current_block is not None:
            return reserve == 0 or info.free_blocks > 0
        return info.free_blocks > reserve

    def staging_room(self, bank):
        """Pages the bank can still program: its free blocks plus the tail
        of its open block."""
        g = self.geometry
        info = self.banks[bank]
        room = info.free_blocks * g.pages_per_block
        if info.current_block is not None:
            room += g.pages_per_block - info.next_page
        return room

    def alloc_page_in_bank(self, bank, reserve=0):
        """Next sequential page of the bank's current block, opening a new
        block when needed. None when the bank has no room (see has_room).
        The caller programs the page in the same scheduler step, without
        yielding in between, so pages hit the block strictly in order. A
        block is retired from current-duty the moment it fills, so its stale
        pages stay visible to GC."""
        g = self.geometry
        info = self.banks[bank]
        if not self.has_room(bank, reserve):
            return None
        if info.current_block is None:
            info.current_block = self.alloc_free_block(bank)
            info.next_page = 0
        page = info.next_page
        block = info.current_block
        info.next_page += 1
        if info.next_page >= g.pages_per_block:
            info.current_block = None
            info.next_page = 0
        return g.ppn(bank, block, page)

    # ---- valid-page accounting -------------------------------------------

    def mark_valid(self, ppn):
        g = self.geometry
        block = ppn // g.pages_per_block
        page = ppn % g.pages_per_block
        if self.valid_bits[block, page]:
            return
        self.valid_bits[block, page] = True
        count = int(self.valid_count[block])
        self.valid_count[block] = count + 1
        bank, local = divmod(block, g.blocks_per_bank)
        self.banks[bank].valid_pages += 1
        self.mark_valid_total += 1
        self._rebucket(bank, local, count, count + 1)

    def mark_invalid(self, ppn):
        """Idempotent: double invalidation is a no-op (GC/flush races)."""
        g = self.geometry
        block = ppn // g.pages_per_block
        page = ppn % g.pages_per_block
        if not self.valid_bits[block, page]:
            return
        self.valid_bits[block, page] = False
        count = int(self.valid_count[block])
        self.valid_count[block] = count - 1
        bank, local = divmod(block, g.blocks_per_bank)
        self.banks[bank].valid_pages -= 1
        self.mark_invalid_total += 1
        self._rebucket(bank, local, count, count - 1)

    # ---- GC victim index ----------------------------------------------------

    def _toggle_bucket(self, bank, block):
        """Enter a block that just became occupied into the bucket of its
        valid count, or take out one that just stopped being occupied."""
        count = int(self.valid_count[bank * self.geometry.blocks_per_bank + block])
        row = self.buckets[bank]
        was = row[count]
        row[count] = now = was ^ (1 << block)
        if not (was and now):
            self.bucket_bits[bank] ^= 1 << count

    def _rebucket(self, bank, block, old, new):
        """Move an occupied block from bucket `old` to bucket `new`; a free
        or bad block is not indexed and stays out."""
        row = self.buckets[bank]
        bit = 1 << block
        was = row[old]
        if not was & bit:
            return
        row[old] = was ^ bit
        if was == bit:
            self.bucket_bits[bank] ^= 1 << old
        was = row[new]
        if not was:
            self.bucket_bits[bank] |= 1 << new
        row[new] = was | bit

    def min_valid_block(self, bank, limit):
        """The bank's occupied block with the fewest valid pages, at most
        `limit`, ties going to the lowest block number, never the open
        block; None when no block qualifies. The lowest non-empty bucket
        within `limit` gives the count and its lowest set bit the block; the
        open block is the one indexed block that is not a candidate, so at
        most one bucket is passed over for it."""
        row = self.buckets[bank]
        current = self.banks[bank].current_block
        keep = -1 if current is None else ~(1 << current)
        counts = self.bucket_bits[bank] & ((2 << limit) - 1)
        while counts:
            lowest = counts & -counts
            blocks = row[lowest.bit_length() - 1] & keep
            if blocks:
                return (blocks & -blocks).bit_length() - 1
            counts ^= lowest
        return None

    def _index_from_arrays(self):
        """The victim index (buckets, bucket_bits) that free_bits, bad_bits
        and valid_count imply; work scales with the occupied blocks."""
        g = self.geometry
        width = g.pages_per_block + 1
        buckets = [[0] * width for _ in range(g.num_banks)]
        bucket_bits = [0] * g.num_banks
        occupied = np.flatnonzero(~(self.free_bits | self.bad_bits))
        banks, blocks = np.divmod(occupied, g.blocks_per_bank)
        # one bucket per distinct (bank, count) key: sorted, a key starts a
        # bucket where it differs from its left neighbour
        keys = banks * width + self.valid_count[occupied]
        order = keys.argsort()
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        members = np.zeros((int(first.sum()), g.blocks_per_bank), dtype=bool)
        members[first.cumsum() - 1, blocks[order]] = True
        packed = np.packbits(members, axis=1, bitorder="little")
        for key, row in zip(keys[first].tolist(), packed):
            bank, count = divmod(key, width)
            buckets[bank][count] = int.from_bytes(row.tobytes(), "little")
            bucket_bits[bank] |= 1 << count
        return buckets, bucket_bits

    def recount(self):
        """Re-derive the per-bank free and valid counters, the mark totals
        and the victim index from free_bits, bad_bits and valid_count: the
        one call a bulk writer makes after writing those arrays directly."""
        g = self.geometry
        free = self.free_bits.sum(axis=1).tolist()
        valid = self.valid_count.reshape(
            g.num_banks, g.blocks_per_bank).sum(axis=1).tolist()
        for info, f, v in zip(self.banks, free, valid):
            info.free_blocks = f
            info.valid_pages = v
        self.mark_valid_total = sum(valid)
        self.mark_invalid_total = 0
        self.buckets, self.bucket_bits = self._index_from_arrays()

    # ---- buffer lookup ------------------------------------------------------

    def buf_find(self, lpn):
        """The slot holding lpn, or None. buf_set keeps this index and
        buf_lookup in step, so the answer holds until the caller yields; a
        result kept across a yield may be stale."""
        return self._lpn_to_slot.get(lpn)

    def buf_set(self, slot, lpn):
        old = self.buf_lookup[slot]
        if old is not None and self._lpn_to_slot.get(old) == slot:
            del self._lpn_to_slot[old]
        self.buf_lookup[slot] = lpn
        if lpn is not None:
            self._lpn_to_slot[lpn] = slot

    def try_claim_alloc(self, lpn):
        """Claim lpn; False when it is already claimed. The write path installs
        a buffer in one step and takes no claim; this pair stays because the
        benchmark's tracer wraps it by name."""
        self._check_lpn(lpn)
        if lpn in self._claims:
            return False
        self._claims.add(lpn)
        return True

    def release_alloc(self, lpn):
        self._claims.discard(lpn)

    # ---- sequence numbers ---------------------------------------------------

    def next_sequence(self):
        self._seq += 1
        return self._seq

    def sequence_floor(self, value):
        if value > self._seq:
            self._seq = value

    @property
    def sequence(self):
        return self._seq

    # ---- audit (quiescent only) ---------------------------------------------

    def audit(self, device=None):
        g = self.geometry
        problems = []
        for bank in range(g.num_banks):
            info = self.banks[bank]
            popcount = int(self.free_bits[bank].sum())
            if popcount != info.free_blocks:
                problems.append(
                    f"bank {bank}: free bitmap {popcount} != counter {info.free_blocks}")
            lo = bank * g.blocks_per_bank
            hi = lo + g.blocks_per_bank
            valid_sum = int(self.valid_count[lo:hi].sum())
            if valid_sum != info.valid_pages:
                problems.append(
                    f"bank {bank}: blkinfo sum {valid_sum} != bankinfo {info.valid_pages}")
            if info.current_block is not None:
                if self.free_bits[bank, info.current_block]:
                    problems.append(f"bank {bank}: current block marked free")
                if self.bad_bits[bank, info.current_block]:
                    problems.append(f"bank {bank}: current block is bad")
        recount = self.valid_bits.sum(axis=1)
        bad_counts = np.flatnonzero(recount != self.valid_count)
        for block in bad_counts:
            problems.append(
                f"block {block}: bitmap {int(recount[block])} != count "
                f"{int(self.valid_count[block])}")
        if (self.mark_valid_total - self.mark_invalid_total
                != int(self.valid_count.sum())):
            problems.append("mark_valid/mark_invalid totals drifted from valid sum")
        buckets, bucket_bits = self._index_from_arrays()
        for bank in range(g.num_banks):
            if (buckets[bank] != self.buckets[bank]
                    or bucket_bits[bank] != self.bucket_bits[bank]):
                problems.append(f"bank {bank}: victim index disagrees with the arrays")
        mapped = self.map[self.map != UNMAPPED]
        if mapped.size:
            if int(mapped.max()) >= g.total_pages:
                problems.append("mapped ppn out of range")
            ordered = np.sort(mapped)
            if (ordered[1:] == ordered[:-1]).any():
                problems.append("map is not injective")
            blocks = mapped // g.pages_per_block
            pages = mapped % g.pages_per_block
            if not np.all(self.valid_bits[blocks, pages]):
                problems.append("mapped page not marked valid")
        if int(self.valid_count.sum()) != mapped.size:
            problems.append(
                f"{int(self.valid_count.sum())} valid pages vs {mapped.size} mapped lpns")
        if device is not None:
            for lpn in np.flatnonzero(self.map != UNMAPPED):
                ppn = int(self.map[lpn])
                addr = g.split_ppn(ppn)
                _, spare, _ = device.read_page(addr, 0, 0, want_spare=True)
                meta = oob.decode_spare(spare)
                if meta is None or meta[1] != lpn:
                    problems.append(f"spare lpn mismatch at ppn {ppn}")
                    break
        if problems:
            raise AuditError("; ".join(problems))
        return {
            "mapped": int(mapped.size),
            "valid_pages": int(self.valid_count.sum()),
            "free_blocks": int(self.free_bits.sum()),
        }
