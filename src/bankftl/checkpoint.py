"""Checkpointing and recovery of the FTL tables.

On clean shutdown the map table, free-block bitmap, per-block valid info,
per-bank info and the sequence counter are serialized into a chain of flash
blocks flagged `checkpoint` in their spare bytes, each block's header pointing
at the next. The chain head must land inside the top-K/bottom-K block window
of some bank, so loading only probes those windows (in parallel across banks)
before walking the chain. If no intact chain is found, a page-level scan of
every written page rebuilds the tables from spare metadata, keeping the
highest sequence number per logical page. The scan reads each block from
page 0 up to its first erased page, so a block never written costs one
probe; a probe is one device read of a plain `(bank, block, page)` tuple,
and a bank's bad blocks are read once, as bytes. Both restore paths write
only the set valid bits, and zero the table first only when it holds any,
so the pages of a fresh state's table that no bit lands on stay untouched.

Two paths move live pages, both through `gc_engine.move_live_pages`: a save
whose head finds every window block occupied empties one first, and the
post-restore free-pool repair moves a starved bank's victim into other
banks. Only the repair's last resort, compacting a block through RAM, does
its own rewrite.

Serialized layout: the sections of `oob.pack_sections`, one per table,
wrapped per block by a header carrying magic, version, chain position, next
block address, per-block payload length and CRCs.
"""

import struct
import zlib

import numpy as np

from . import oob
from .errors import CheckpointError, ExhaustionError
from .ftl_state import UNMAPPED
from .gc_engine import move_live_pages
from .sim_flash import PageAddress

MAGIC = b"BFCK"
VERSION = 1
_HDR = struct.Struct("<4sHHiiHII")      # magic, ver, chain_idx, next_bank,
                                        # next_block, total_blocks, payload_len,
                                        # payload_crc
_HDR_CRC = struct.Struct("<I")
HEADER_BYTES = _HDR.size + _HDR_CRC.size


def window_blocks(geometry, k):
    """Block indices probed per bank: the top K and bottom K of the bank."""
    bpb = geometry.blocks_per_bank
    k = max(1, min(k, bpb // 2))
    return list(range(k)) + list(range(bpb - k, bpb))


# ---- table serialization ----------------------------------------------------

def serialize_state(state):
    g = state.geometry
    # per bank: free blocks, valid pages, open block (-1: none), next page;
    # a restore reads back only the last two
    valid = state.valid_count.reshape(
        g.num_banks, g.blocks_per_bank).sum(axis=1).tolist()
    bank_rows = [
        (info.free_blocks, pages,
         -1 if info.current_block is None else info.current_block,
         info.next_page)
        for info, pages in zip(state.banks, valid)]
    bank_blob = np.asarray(bank_rows, dtype=np.int32).tobytes()
    return oob.pack_sections([
        (b"MAPT", state.map.tobytes()),
        (b"FREE", np.packbits(state.free_bits).tobytes()),
        (b"VBIT", np.packbits(state.valid_bits).tobytes()),
        (b"VCNT", state.valid_count.tobytes()),
        (b"BANK", bank_blob),
        (b"SEQC", struct.pack("<Q", state.sequence)),
    ])


def section_sizes(state):
    """The byte length of each section `serialize_state` writes, in order;
    the geometry fixes every one."""
    return {
        b"MAPT": state.map.nbytes,
        b"FREE": -(-state.free_bits.size // 8),
        b"VBIT": -(-state.valid_bits.size // 8),
        b"VCNT": state.valid_count.nbytes,
        b"BANK": state.geometry.num_banks * 4 * 4,  # four int32 columns per bank
        b"SEQC": 8,
    }


def restore_state(state, payload):
    g = state.geometry
    mapt, free, vbit, vcnt, bank_blob, seqc = oob.unpack_sections(
        payload, section_sizes(state), CheckpointError)
    state.map[:] = np.frombuffer(mapt, dtype=np.uint32)
    free = np.unpackbits(np.frombuffer(free, dtype=np.uint8))
    state.free_bits[:] = free[:g.num_banks * g.blocks_per_bank].reshape(
        g.num_banks, g.blocks_per_bank).astype(bool)
    # only the set bits are written, so a mostly unwritten card's table
    # keeps its untouched pages out of memory
    packed = np.frombuffer(vbit, dtype=np.uint8)
    nonzero = np.flatnonzero(packed)
    bits = np.unpackbits(packed[nonzero]).reshape(-1, 8).astype(bool)
    positions = (nonzero[:, None] * 8 + np.arange(8))[bits]
    valid = _clear(state.valid_bits).reshape(-1)
    valid[positions[positions < valid.size]] = True
    state.valid_count[:] = np.frombuffer(vcnt, dtype=np.int32)
    rows = np.frombuffer(bank_blob, dtype=np.int32).reshape(-1, 4)
    for bank, info in enumerate(state.banks):
        info.current_block = None if rows[bank, 2] < 0 else int(rows[bank, 2])
        info.next_page = int(rows[bank, 3])
    state.sequence_floor(struct.unpack("<Q", seqc)[0])
    state.recount()


def _clear(table):
    """`table` all False; a table already clear is left untouched (its
    pages that were never written stay out of memory)."""
    if table.any():
        table[:] = False
    return table


class Checkpointer:
    def __init__(self, sched, device, state, k=4):
        self.sched = sched
        self.device = device
        self.state = state
        self.k = k
        # telemetry for the scan-cost bound
        self.window_probes = 0
        self.chain_reads = 0
        self.scan_reads = 0

    # ---- helpers -------------------------------------------------------------

    def _chain_capacity(self):
        g = self.device.geometry
        return g.pages_per_block * g.page_size - HEADER_BYTES

    def _alloc_head(self):
        """A free window block, or one made free by relocating an occupied
        window block's valid pages within its bank."""
        g = self.device.geometry
        window = window_blocks(g, self.k)
        for bank in range(g.num_banks):
            for block in window:
                if self.state.bad_bits[bank, block]:
                    continue
                if self.state.alloc_specific_block(bank, block):
                    return bank, block, 0
        # every window block is occupied: relocate the emptiest candidate,
        # falling back across banks when one is too full to host the copies
        candidates = []
        for bank in range(g.num_banks):
            info = self.state.banks[bank]
            for block in window:
                if self.state.bad_bits[bank, block] or block == info.current_block:
                    continue
                count = int(self.state.valid_count[bank * g.blocks_per_bank + block])
                candidates.append((count, bank, block))
        candidates.sort()
        for _, bank, block in candidates:
            try:
                yield from self._relocate(bank, block)
            except CheckpointError:
                continue
            if self.state.alloc_specific_block(bank, block):
                return bank, block, 1
        raise CheckpointError("no window block available for the chain head")

    def _relocate(self, bank, block):
        """Move a block's valid pages elsewhere in the bank (quiesced).
        Refuses up front when the bank cannot hold the copies plus a block
        of headroom, so a failed save never drains a bank's staging space."""
        g = self.device.geometry
        state = self.state
        gblock = bank * g.blocks_per_bank + block
        needed = int(state.valid_count[gblock]) + g.pages_per_block
        if state.staging_room(bank) < needed:
            raise CheckpointError(f"bank {bank} too full to relocate")
        moved = yield from move_live_pages(
            self.sched, self.device, state, bank, block,
            lambda: state.alloc_page_in_bank(bank))
        if not moved:
            raise CheckpointError(f"bank {bank} too full to relocate")
        yield self.device.erase_block(bank, block, submit_us=self.sched.now)
        state.release_block(bank, block)

    # ---- save ---------------------------------------------------------------

    def save(self):
        """Write the chain; returns (head_bank, head_block, relocations)."""
        g = self.device.geometry
        state = self.state
        length = oob.framed_length(section_sizes(state).values())
        per_block = self._chain_capacity()
        n_blocks = max(1, -(-length // per_block))
        head_bank, head_block, relocations = yield from self._alloc_head()
        chain = [(head_bank, head_block)]
        bank = 0
        while len(chain) < n_blocks:
            allocated = False
            # prefer banks with spare blocks; dig into the last free block
            # only when unavoidable (chain blocks are erase-only to reclaim)
            for floor in (1, 0):
                for i in range(g.num_banks):
                    b = (bank + i) % g.num_banks
                    if state.banks[b].free_blocks <= floor:
                        continue
                    try:
                        blk = state.alloc_free_block(b)
                    except ExhaustionError:
                        continue
                    chain.append((b, blk))
                    bank = (b + 1) % g.num_banks
                    allocated = True
                    break
                if allocated:
                    break
            if not allocated:
                raise CheckpointError("no free blocks for checkpoint chain")
        seq = state.next_sequence()
        payload = serialize_state(state)      # reflects the chain allocation
        offset = 0
        for idx, (cbank, cblock) in enumerate(chain):
            chunk = payload[offset:offset + per_block]
            offset += len(chunk)
            nxt = chain[idx + 1] if idx + 1 < len(chain) else (-1, -1)
            hdr = _HDR.pack(MAGIC, VERSION, idx, nxt[0], nxt[1], len(chain),
                            len(chunk), zlib.crc32(chunk) & 0xFFFFFFFF)
            hdr += _HDR_CRC.pack(zlib.crc32(hdr) & 0xFFFFFFFF)
            blob = hdr + chunk
            for page_idx in range(-(-len(blob) // g.page_size)):
                page = blob[page_idx * g.page_size:(page_idx + 1) * g.page_size]
                page = page + b"\x00" * (g.page_size - len(page))
                spare = oob.encode_spare(oob.TYPE_CHECKPOINT, oob.LPN_NONE, seq, page)
                yield self.device.write_page(
                    PageAddress(cbank, cblock, page_idx), page, spare,
                    submit_us=self.sched.now)
        return head_bank, head_block, relocations

    # ---- load ----------------------------------------------------------------

    def _read_block_blob(self, bank, block, pages):
        parts = []
        for page in range(pages):
            data, _, wait = self.device.read_page(
                PageAddress(bank, block, page), submit_us=self.sched.now)
            self.chain_reads += 1
            yield wait
            parts.append(data)
        return b"".join(parts)

    def _probe_bank(self, bank, heads):
        g = self.device.geometry
        for block in window_blocks(g, self.k):
            _, spare, wait = self.device.read_page(
                PageAddress(bank, block, 0), 0, 0, want_spare=True,
                submit_us=self.sched.now)
            self.window_probes += 1
            yield wait
            meta = oob.decode_spare(spare)
            if meta is None or meta[0] != oob.TYPE_CHECKPOINT:
                continue
            data, _, wait = self.device.read_page(
                PageAddress(bank, block, 0), submit_us=self.sched.now)
            self.chain_reads += 1
            yield wait
            hdr = self._parse_header(data)
            if hdr is not None and hdr["chain_index"] == 0:
                heads.append((meta[2], bank, block, hdr, data))

    @staticmethod
    def _parse_header(blob):
        if len(blob) < HEADER_BYTES:
            return None
        magic, ver, idx, nb, nblk, total, plen, pcrc = _HDR.unpack_from(blob)
        (hcrc,) = _HDR_CRC.unpack_from(blob, _HDR.size)
        if magic != MAGIC or ver != VERSION:
            return None
        if (zlib.crc32(blob[:_HDR.size]) & 0xFFFFFFFF) != hcrc:
            return None
        return {"chain_index": idx, "next": (nb, nblk), "total": total,
                "payload_len": plen, "payload_crc": pcrc}

    def load(self):
        """Probe the windows bank-parallel, walk the newest chain, restore.
        Returns True on success; False means fall back to recovery_scan."""
        g = self.device.geometry
        self.window_probes = 0
        self.chain_reads = 0
        heads = []
        actors = [self.sched.spawn(self._probe_bank(bank, heads), f"probe-{bank}")
                  for bank in range(g.num_banks)]
        for a in actors:
            if not a.done:
                yield a.done_event
        if not heads:
            return False
        heads.sort(key=lambda h: h[0])
        seq, bank, block, hdr, page0 = heads[-1]
        payload = bytearray()
        visited = set()
        ok = True
        while True:
            if (bank, block) in visited or len(visited) > hdr["total"]:
                ok = False
                break
            visited.add((bank, block))
            pages_needed = -(-(HEADER_BYTES + hdr["payload_len"]) // g.page_size)
            blob = page0
            if pages_needed > 1:
                rest = yield from self._read_block_blob(bank, block, pages_needed)
                blob = rest     # re-read includes page 0
            chunk = blob[HEADER_BYTES:HEADER_BYTES + hdr["payload_len"]]
            if (zlib.crc32(chunk) & 0xFFFFFFFF) != hdr["payload_crc"]:
                ok = False
                break
            payload += chunk
            nb, nblk = hdr["next"]
            if nb < 0:
                break
            data, _, wait = self.device.read_page(
                PageAddress(nb, nblk, 0), submit_us=self.sched.now)
            self.chain_reads += 1
            yield wait
            hdr = self._parse_header(data)
            if hdr is None:
                ok = False
                break
            bank, block, page0 = nb, nblk, data
        if not ok:
            return False
        try:
            restore_state(self.state, memoryview(payload))
        except CheckpointError:
            return False
        self.state.sequence_floor(seq)
        # consume every discovered head so stale chains cannot be re-found
        for hseq, hbank, hblock, _, _ in heads:
            yield self.device.erase_block(hbank, hblock, submit_us=self.sched.now)
            self.state.release_block(hbank, hblock)
        return True

    # ---- page-level recovery ----------------------------------------------------

    def _scan_bank(self, bank, found, free_blocks_out, partial_out):
        g = self.device.geometry
        sched = self.sched
        read_page = self.device.read_page
        bad = self.state.bad_bits[bank].tobytes()
        pages_per_block, num_lpns = g.pages_per_block, self.state.num_lpns
        # erased reads hand back these very objects, so most compares are
        # identity checks
        erased_page, erased_spare = self.device.erased_page, self.device.erased_spare
        for block in range(g.blocks_per_bank):
            if bad[block]:
                continue
            first = True
            block_type = None
            for page in range(pages_per_block):
                data, spare, wait = read_page((bank, block, page), want_spare=True,
                                              submit_us=sched.now)
                self.scan_reads += 1
                yield wait
                if spare == erased_spare and data == erased_page:
                    if first:
                        free_blocks_out.append((bank, block))
                    elif block_type == oob.TYPE_DATA:
                        # data block with an erased tail: adoptable as the
                        # bank's current-writing block after restore
                        partial_out.append((bank, block, page))
                    break            # sequential programming: rest is erased
                first = False
                meta = oob.decode_spare(spare, data)
                if meta is None:
                    continue         # torn page, skipped
                btype, lpn, seq = meta
                if block_type is None:
                    block_type = btype
                if btype != oob.TYPE_DATA or lpn >= num_lpns:
                    continue
                found.append((seq, lpn, g.ppn(bank, block, page)))

    def recovery_scan(self):
        """Bank-parallel scan of every written page; last writer wins."""
        g = self.device.geometry
        self.scan_reads = 0
        found = []
        free_out = []
        partial_out = []
        actors = [self.sched.spawn(
            self._scan_bank(bank, found, free_out, partial_out), f"scan-{bank}")
            for bank in range(g.num_banks)]
        for a in actors:
            if not a.done:
                yield a.done_event
        state = self.state
        state.map[:] = UNMAPPED
        _clear(state.valid_bits)
        state.valid_count[:] = 0
        state.free_bits[:] = False
        for bank, block in free_out:
            state.free_bits[bank, block] = True
        best = {}
        max_seq = 0
        for seq, lpn, ppn in found:
            max_seq = max(max_seq, seq)
            cur = best.get(lpn)
            if cur is None or seq > cur[0]:
                best[lpn] = (seq, ppn)
        for lpn, (_, ppn) in best.items():
            state.map[lpn] = np.uint32(ppn)
            block = ppn // g.pages_per_block
            page = ppn % g.pages_per_block
            state.valid_bits[block, page] = True
            state.valid_count[block] += 1
        state.recount()
        for info in state.banks:
            info.current_block = None
            info.next_page = 0
        # re-adopt one partially written data block per bank as its current
        # block (largest erased tail first): after a crash of a hot card no
        # block may be free, and these tails are the only staging space left
        best_partial = {}
        for bank, block, prefix in partial_out:
            cur = best_partial.get(bank)
            if cur is None or prefix < cur[1]:
                best_partial[bank] = (block, prefix)
        for bank, (block, prefix) in best_partial.items():
            info = state.banks[bank]
            info.current_block = block
            info.next_page = prefix
        state.sequence_floor(max_seq)
        return len(best)

    # ---- post-restore free-pool repair ------------------------------------

    def ensure_free_pool(self):
        """Guarantee each bank at least one free block after a restore.

        A crash image of a busy card can recover with every block of a bank
        written (stale pages included), which starves bank-local GC of copy
        space forever. Repair like an fsck: erase fully-stale blocks first
        (needs no staging), then, for banks still without a free block,
        relocate the emptiest victim's live pages into another bank and
        erase it. Runs quiesced, before serving starts."""
        g = self.device.geometry
        state = self.state
        for bank in range(g.num_banks):
            # fully-stale blocks, lowest block number first
            while (block := state.min_valid_block(bank, 0)) is not None:
                if self.device.written_prefix(bank, block):
                    yield self.device.erase_block(bank, block,
                                                  submit_us=self.sched.now)
                state.release_block(bank, block)
        repaired = 0
        for bank in range(g.num_banks):
            info = state.banks[bank]
            attempts = 0
            while info.free_blocks < 1 and attempts < g.blocks_per_bank:
                attempts += 1
                block = state.min_valid_block(bank, g.pages_per_block - 1)
                if block is None:
                    break                      # bank is wholly live: nothing to free
                if state.valid_count[bank * g.blocks_per_bank + block] == 0:
                    yield self.device.erase_block(bank, block,
                                                  submit_us=self.sched.now)
                    state.release_block(bank, block)
                    repaired += 1
                    continue
                done = yield from self._relocate_anywhere(bank, block)
                if done:
                    yield self.device.erase_block(bank, block,
                                                  submit_us=self.sched.now)
                    state.release_block(bank, block)
                    repaired += 1
                else:
                    # nowhere to put the copies: compact the victim through
                    # RAM, adopting its erased tail as this bank's current
                    # block; the next pass relocates into that tail
                    yield from self._compact_block(bank, block)
        return repaired

    def _relocate_anywhere(self, bank, block):
        """Move a block's live pages to any bank with room (repair only;
        GC proper stays bank-local). Returns False when targets dry up."""
        state = self.state
        banks = state.banks

        def alloc():
            # open tail pages first (no free block spent), then banks that
            # can open a block and still keep one spare
            targets = sorted(range(len(banks)),
                             key=lambda t: (banks[t].current_block is None,
                                            -banks[t].free_blocks))
            for target in targets:
                reserve = 0 if banks[target].current_block is not None else 1
                ppn = state.alloc_page_in_bank(target, reserve)
                if ppn is not None:
                    return ppn
            return None
        return (yield from move_live_pages(self.sched, self.device, state,
                                           bank, block, alloc))

    def _compact_block(self, bank, block):
        """Buffer a block's live pages in RAM, erase it, rewrite them from
        page 0 and adopt the erased tail as the bank's current block. Only
        legal quiesced (readers would otherwise see the erase window)."""
        g = self.device.geometry
        state = self.state
        info = state.banks[bank]
        gblock = bank * g.blocks_per_bank + block
        live = []
        for page in range(self.device.written_prefix(bank, block)):
            if not state.valid_bits[gblock, page]:
                continue
            old_ppn = g.ppn(bank, block, page)
            data, spare, wait = self.device.read_page(
                g.split_ppn(old_ppn), want_spare=True, submit_us=self.sched.now)
            yield wait
            meta = oob.decode_spare(spare, data)
            if meta is not None:
                live.append((meta[1], meta[2], data))
            state.mark_invalid(old_ppn)
        yield self.device.erase_block(bank, block, submit_us=self.sched.now)
        for i, (lpn, seq, data) in enumerate(live):
            spare = oob.encode_spare(oob.TYPE_DATA, lpn, seq, data)
            yield self.device.write_page(
                PageAddress(bank, block, i), data, spare,
                submit_us=self.sched.now)
            new_ppn = g.ppn(bank, block, i)
            state.map_update_locked(lpn, new_ppn)
            state.mark_valid(new_ppn)
        if not live:
            state.release_block(bank, block)
        elif len(live) < g.pages_per_block:
            info.current_block = block
            info.next_page = len(live)

