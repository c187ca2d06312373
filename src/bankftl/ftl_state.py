"""In-memory FTL tables.

Six structures cooperate: the page map (one 4-byte entry per exported logical
page), the per-bank free-block bitmap, per-block valid-page bitmaps and
counts, per-bank counters and flags, the buffer lookup table, and the per-LPN
buffer-allocation claim bitmap. A monotone sequence counter stamps every
flushed page's spare.

Every caller is an actor on one cooperative scheduler, and each method runs
to completion within one scheduler step, so no method takes a lock. The
exclusions that must outlast a virtual wait are explicit state: the per-LPN
claim bits and each bank's `gc_active`, `exclusive_gc` and `writers_active`.
OS threads reach these tables only through the `Engine` facade, whose pump
lock admits one at a time. audit() needs a quiescent engine.
"""

import numpy as np

from .errors import AddressError, AuditError, ExhaustionError
from .oob import decode_spare

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
        self.banks = [BankInfo(int(self.free_bits[b].sum()))
                      for b in range(g.num_banks)]
        # buffer lookup: slot -> lpn (or None); reverse index for O(1) search
        self.buf_lookup = [None] * num_buffers
        self._lpn_to_slot = {}
        self.alloc_claims = np.zeros(self.num_lpns, dtype=bool)
        self._seq = 0
        self.mark_valid_total = 0
        self.mark_invalid_total = 0

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
        return block

    def alloc_specific_block(self, bank, block):
        if not self.free_bits[bank, block]:
            return False
        self.free_bits[bank, block] = False
        self.banks[bank].free_blocks -= 1
        return True

    def release_block(self, bank, block):
        """Return an erased block to the free pool."""
        if self.bad_bits[bank, block]:
            raise AddressError("bad block cannot be freed")
        if not self.free_bits[bank, block]:
            self.free_bits[bank, block] = True
            self.banks[bank].free_blocks += 1

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
        self.valid_count[block] += 1
        self.banks[block // g.blocks_per_bank].valid_pages += 1
        self.mark_valid_total += 1

    def mark_invalid(self, ppn):
        """Idempotent: double invalidation is a no-op (GC/flush races)."""
        g = self.geometry
        block = ppn // g.pages_per_block
        page = ppn % g.pages_per_block
        if not self.valid_bits[block, page]:
            return
        self.valid_bits[block, page] = False
        self.valid_count[block] -= 1
        self.banks[block // g.blocks_per_bank].valid_pages -= 1
        self.mark_invalid_total += 1

    # ---- buffer lookup / allocation claims --------------------------------

    def buf_find(self, lpn):
        """The slot holding lpn, or None; a result kept across a yield may
        be stale, so callers confirm it against buf_lookup."""
        return self._lpn_to_slot.get(lpn)

    def buf_set(self, slot, lpn):
        old = self.buf_lookup[slot]
        if old is not None and self._lpn_to_slot.get(old) == slot:
            del self._lpn_to_slot[old]
        self.buf_lookup[slot] = lpn
        if lpn is not None:
            self._lpn_to_slot[lpn] = slot

    def try_claim_alloc(self, lpn):
        self._check_lpn(lpn)
        if self.alloc_claims[lpn]:
            return False
        self.alloc_claims[lpn] = True
        return True

    def release_alloc(self, lpn):
        self.alloc_claims[lpn] = False

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
        mapped = self.map[self.map != UNMAPPED]
        if mapped.size:
            if int(mapped.max()) >= g.total_pages:
                problems.append("mapped ppn out of range")
            if np.unique(mapped).size != mapped.size:
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
                meta = decode_spare(spare)
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
