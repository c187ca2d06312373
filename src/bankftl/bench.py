"""Benchmark harness: workload generation, artificial aging, desk-scale
presets for the policy and scaling experiments, latency tracing, reports.

Client threads are actors that stream one-sector writes through the engine,
each acknowledged before the next (`IoEngine.write_run`), and sleep per the
think-time rules. One latency sample covers one flash-page-sized logical
write, measured from the first sector's submission to the last sector's
acknowledgement.

Aging injection synthesizes a long-used device by mutating the tables and
flash directly: it plans per-bank free-block counts and per-block
valid-page counts from clipped normal distributions, then builds every aged
page in array operations. Each aged page is a 12-byte head, its LPN and
sequence number (`_AGED_HEAD`), followed by zeros; stale pages carry lower
sequence numbers than the live copy of the same LPN. All heads are packed
in one array, all spares come from one `oob.encode_head_spares` call, and
each occupied block's heads and spares are programmed in one
`SimFlashDevice.program_block` call, each head already in the device's
stored form of its page. The tables are filled with array assignments,
then the device clocks are rebased so the synthesis costs no simulated
time. A spec that cannot be aged as asked raises ConfigurationError before
any page is written. `aged_read_check` looks a sample of aged pages up
with `SimFlashDevice.peek_page`, which moves no clock, and checks each
one's head and spare.
"""

import json
import os
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from . import oob
from .engine import Engine, EngineConfig
from .errors import AuditError, ConfigurationError, EngineStateError
from .ftl_state import UNMAPPED
from .gc_engine import GcPolicy
from .io_engine import EngineParams

MS = 1000
SEC = 1000 * MS


@dataclass
class WorkloadSpec:
    num_client_threads: int = 1
    region_lpns: int = 1024        # total working set, partitioned per client
    rounds: int = 1                # passes over the region (overwrite x N)
    pattern: str = "sequential"    # sequential | random
    think_small_us: int = 0        # sleep after each page written
    think_large_us: int = 0        # sleep after each chunk written
    chunk_pages: int = 8
    start_jitter_us: int = 0
    seed: int = 0


@dataclass
class AgingSpec:
    free_mean: float = 12.0        # free blocks per bank, clipped normal
    free_spread: float = 3.0
    free_min: int = 2
    valid_mean: float = 32.0       # valid pages per occupied block
    valid_spread: float = 14.0
    valid_min: int = 0
    valid_max: int = 0             # 0 = pages_per_block - 1
    seed: int = 1


@dataclass
class RunReport:
    policy: str = ""
    preset: str = ""
    seed: int = 0
    elapsed_us: int = 0
    samples: list = field(default_factory=list)   # [id, bytes, latency_us, thread]
    per_thread_avg_us: dict = field(default_factory=dict)
    blocks_collected: int = 0
    write_amplification: float = 0.0
    user_bytes: int = 0
    over_threshold: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    errors: int = 0

    def count_over(self, boundary_us):
        return sum(1 for s in self.samples if s[2] > boundary_us)

    def normalized_thread_latencies(self):
        if not self.per_thread_avg_us:
            return {}
        floor = min(self.per_thread_avg_us.values())
        return {t: v / floor for t, v in self.per_thread_avg_us.items()}

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        raw["per_thread_avg_us"] = {int(k): v
                                    for k, v in raw["per_thread_avg_us"].items()}
        return cls(**raw)


# ---- client actors -----------------------------------------------------------


def _client_pages(spec, tid):
    """Deterministic page-index stream for one client within its region."""
    per = spec.region_lpns // max(1, spec.num_client_threads)
    base = tid * per
    rng = random.Random((spec.seed << 16) ^ (tid * 0x9E3779B1))
    if spec.pattern == "random":
        for _ in range(per * spec.rounds):
            yield base + rng.randrange(per)
    else:
        for _ in range(spec.rounds):
            for i in range(per):
                yield base + i


def _client_actor(eng, spec, tid, pattern, samples, thread_sums, errors):
    """One client; `pattern` is a page of the bytes every client writes."""
    g = eng.device.geometry
    spp = g.sectors_per_page
    sector = g.read_unit
    rng = random.Random((spec.seed << 20) ^ tid)
    if spec.start_jitter_us:
        yield rng.randrange(spec.start_jitter_us)
    pages_done = 0
    for page_index in _client_pages(spec, tid):
        t0 = eng.sched.now
        lsn, end = page_index * spp, (page_index + 1) * spp
        # the buffered run from `lsn` is served in this step; the sector it
        # stops at comes back queued
        while lsn < end:
            req = eng.io.write_run(lsn, pattern[lsn % spp * sector:])
            if req is None:
                break
            yield req
            if req.error is not None:
                errors.append((tid, req.lsn, repr(req.error)))
            lsn = req.lsn + 1
        latency = eng.sched.now - t0
        samples.append([len(samples), g.page_size, latency, tid])
        thread_sums[tid][0] += latency
        thread_sums[tid][1] += 1
        pages_done += 1
        if spec.think_small_us:
            yield spec.think_small_us
        if spec.think_large_us and pages_done % spec.chunk_pages == 0:
            yield spec.think_large_us


def run(spec, config):
    """Drive a workload through a fresh engine; clean shutdown afterwards."""
    eng = Engine.start(config)
    try:
        report = drive(eng, spec)
    finally:
        if eng.live:
            eng.shutdown(clean=True)
    return report


def drive(eng, spec, preset=""):
    """Run the workload on a live engine and snapshot a report at the moment
    the last client acknowledgement lands (GC keeps running afterwards)."""
    if spec.region_lpns > eng.state.num_lpns:
        raise ConfigurationError("workload region exceeds exported capacity")
    samples = []
    errors = []
    thread_sums = {tid: [0, 0] for tid in range(spec.num_client_threads)}
    t_start = eng.sched.now
    pattern = memoryview(b"\xa5" * eng.device.geometry.page_size)
    actors = [eng.sched.spawn(
        _client_actor(eng, spec, tid, pattern, samples, thread_sums, errors),
        f"client-{tid}")
        for tid in range(spec.num_client_threads)]
    for a in actors:
        eng.pump(a.done_event)
    elapsed = eng.sched.now - t_start
    stats = eng.stats()
    report = RunReport(
        policy=eng.config.policy.kind,
        preset=preset,
        seed=spec.seed,
        elapsed_us=elapsed,
        samples=samples,
        per_thread_avg_us={tid: (s / n) for tid, (s, n) in thread_sums.items() if n},
        blocks_collected=stats["gc"]["blocks_collected"],
        write_amplification=stats["write_amplification"] or 0.0,
        user_bytes=stats["io"]["user_sectors_written"] * eng.device.geometry.read_unit,
        over_threshold={"2000": sum(1 for s in samples if s[2] > 2000)},
        counters={"io": stats["io"], "device": stats["device"],
                  "gc": stats["gc"]},
        errors=len(errors),
    )
    return report


# ---- artificial aging -----------------------------------------------------------


# the head of an aged page, which zeros follow up to the page size
_AGED_HEAD = np.dtype([("lpn", "<u4"), ("seq", "<u8")])


def _aging_valid_max(aging, ppb):
    """The spec's effective valid_max; a spec that cannot be aged as asked
    raises ConfigurationError naming the field."""
    for name in ("free_mean", "free_spread", "free_min",
                 "valid_mean", "valid_spread", "valid_min", "valid_max"):
        if getattr(aging, name) < 0:
            raise ConfigurationError(f"aging {name} must not be negative")
    if aging.valid_max > ppb:
        raise ConfigurationError(
            f"aging valid_max {aging.valid_max} exceeds the {ppb} pages "
            f"of a block")
    valid_max = aging.valid_max or ppb - 1
    if aging.valid_min > valid_max:
        raise ConfigurationError(
            f"aging valid_min {aging.valid_min} exceeds valid_max {valid_max}")
    return valid_max


def inject_aging(eng, aging):
    """Synthesize a long-used device (quiesced, empty engine required)."""
    if not eng.live:
        raise EngineStateError("engine must be started before aging")
    state, device, g = eng.state, eng.device, eng.device.geometry
    if int((state.map != UNMAPPED).sum()):
        raise EngineStateError("aging needs an empty mapping")
    ppb = g.pages_per_block
    valid_max = _aging_valid_max(aging, ppb)
    rng = np.random.default_rng(aging.seed)
    occupied = []       # (bank, block), in plan order
    positions = []      # each occupied block's valid pages
    for bank in range(g.num_banks):
        usable = [b for b in range(g.blocks_per_bank)
                  if not state.bad_bits[bank, b]]
        free_n = min(max(round(rng.normal(aging.free_mean, aging.free_spread)),
                         aging.free_min), len(usable))
        chosen = rng.permutation(len(usable))[:len(usable) - free_n]
        for i in sorted(chosen.tolist()):
            v = min(max(round(rng.normal(aging.valid_mean, aging.valid_spread)),
                        aging.valid_min), valid_max)
            occupied.append((bank, usable[i]))
            positions.append(rng.permutation(ppb)[:v])
    # one row per occupied block, one column per page: True where valid
    live = np.zeros((len(occupied), ppb), dtype=bool)
    for row, valid in zip(live, positions):
        row[valid] = True
    total_valid = int(live.sum())
    if total_valid > state.num_lpns:
        raise ConfigurationError("aging spec maps more lpns than exported")
    n_stale = live.size - total_valid
    if n_stale and not total_valid:
        raise ConfigurationError(
            "aging plans stale pages but no valid page for them to name")
    lpn_order = rng.permutation(state.num_lpns)[:total_valid]
    # pages in plan order: live pages take lpn_order in turn; stale pages
    # name random live lpns with strictly lower sequence numbers
    lpns = np.empty(live.shape, dtype=np.int64)
    seqs = np.empty(live.shape, dtype=np.int64)
    lpns[live] = lpn_order
    seqs[live] = np.arange(n_stale + 1, n_stale + total_valid + 1)
    if n_stale:
        lpns[~live] = lpn_order[rng.integers(total_valid, size=n_stale)]
        seqs[~live] = np.arange(1, n_stale + 1)
    heads = np.empty(live.size, dtype=_AGED_HEAD)
    heads["lpn"] = lpns.ravel()
    heads["seq"] = seqs.ravel()
    width = _AGED_HEAD.itemsize
    spares = oob.encode_head_spares(oob.TYPE_DATA, heads["lpn"], heads["seq"],
                                    heads.view(np.uint8).reshape(-1, width),
                                    g.page_size)
    # each head as one `bytes` cut after its last non-zero byte (numpy
    # drops an `S` item's trailing NULs): the stored form of its page, which
    # the device keeps as given
    heads = heads.view(f"S{width}").tolist()
    for i, (bank, block) in enumerate(occupied):
        rows = slice(i * ppb, (i + 1) * ppb)
        device.program_block(bank, block, heads[rows], spares[rows])
    if occupied:
        banks, blocks = np.array(occupied).T
        state.free_bits[banks, blocks] = False
        gblocks = banks * g.blocks_per_bank + blocks
        state.valid_bits[gblocks] = live
        state.valid_count[gblocks] = live.sum(axis=1)
        ppns = gblocks[:, None] * ppb + np.arange(ppb)
        state.map[lpn_order] = ppns[live]
    state.recount()
    state.sequence_floor(n_stale + total_valid + 1)
    device.reset_clocks(eng.sched.now)
    eng.reset_baseline()
    state.audit()
    return {"mapped": total_valid, "occupied_blocks": len(occupied)}


def aged_read_check(eng, sample=64):
    """Read back a sample of the mapped lpns of a freshly aged card; each
    page's head must name its lpn, and its spare must decode against the
    page to that lpn and the head's sequence number. Raises AuditError
    otherwise; returns how many pages it checked."""
    g = eng.device.geometry
    state = eng.state
    mapped = np.flatnonzero(state.map != UNMAPPED)
    if mapped.size == 0:
        return 0
    step = max(1, mapped.size // sample)
    checked = 0
    for lpn in (int(x) for x in mapped[::step]):
        data, spare = eng.device.peek_page(g.split_ppn(int(state.map[lpn])))
        head = np.frombuffer(data, dtype=_AGED_HEAD, count=1)[0]
        got_lpn, got_seq = int(head["lpn"]), int(head["seq"])
        if got_lpn != lpn:
            raise AuditError(f"aged lpn {lpn} reads back {got_lpn}")
        if oob.decode_spare(spare, data) != (oob.TYPE_DATA, lpn, got_seq):
            raise AuditError(f"aged lpn {lpn} has a spare that does not "
                             f"decode to lpn {lpn} seq {got_seq}")
        checked += 1
    return checked


# ---- presets -----------------------------------------------------------------


@dataclass
class PresetBundle:
    name: str
    profile: str
    workload: WorkloadSpec
    io: EngineParams
    aging: AgingSpec
    policy: GcPolicy
    alt_policy: GcPolicy = None    # comparison partner, when the experiment is a pair
    levels: list = None            # GC level table override
    notes: str = ""


def preset(name, seed=0):
    """Desk-scaled bundles for the built-in experiments."""
    if name == "npgc-vs-pllgc":
        return PresetBundle(
            name=name, profile="desk8",
            workload=WorkloadSpec(num_client_threads=1, region_lpns=2048,
                                  rounds=16, pattern="sequential", seed=seed),
            io=EngineParams(num_queues=64),
            aging=AgingSpec(free_mean=12, free_spread=3, free_min=4,
                            valid_mean=32, valid_spread=14, valid_max=60,
                            seed=seed + 7),
            policy=GcPolicy(kind="PLLGC", max_gc_threads=1),
            alt_policy=GcPolicy(kind="NPGC"),
            notes="aged single-writer overwrite x16; max 1 GC thread",
        )
    if name == "adaptive-vs-pllgc":
        # deeply aged card whose victims sit at the deepest level: every
        # collection is a long same-bank claim that nets only part of a
        # block, so collector appetite is chronic and the thread throttle
        # is what keeps collectors out of the writers' way
        from .gc_engine import GcLevel
        return PresetBundle(
            name=name, profile="desk8",
            workload=WorkloadSpec(num_client_threads=128, region_lpns=8192,
                                  rounds=2, pattern="random",
                                  think_small_us=2 * MS, think_large_us=600 * MS,
                                  chunk_pages=16, start_jitter_us=20 * MS,
                                  seed=seed),
            io=EngineParams(num_queues=64),
            aging=AgingSpec(free_mean=8, free_spread=1.5, free_min=5,
                            valid_mean=36, valid_spread=8, valid_max=58,
                            seed=seed + 11),
            policy=GcPolicy(kind="PLLGC_ADAPTIVE", max_gc_threads=8,
                            activity_window_us=5000),
            alt_policy=GcPolicy(kind="PLLGC", max_gc_threads=8,
                                activity_window_us=5000),
            levels=[GcLevel(16, 0), GcLevel(12, 16), GcLevel(8, 32)],
            notes="128 think-time clients on 8 banks; 8 GC threads max",
        )
    if name == "queue-scaling":
        # random page order decorrelates the per-client streams across the
        # dispatch hash (aligned sequential regions stride it in lockstep)
        return PresetBundle(
            name=name, profile="desk64",
            workload=WorkloadSpec(num_client_threads=64, region_lpns=16384,
                                  rounds=1, pattern="random", seed=seed),
            io=EngineParams(num_queues=64),
            aging=None,
            policy=GcPolicy(kind="PLLGC", max_gc_threads=1),
            notes="sweep num_queues over 1..64 on a fresh 64-bank card",
        )
    if name == "init-scan":
        return PresetBundle(
            name=name, profile="desk8",
            workload=WorkloadSpec(num_client_threads=8, region_lpns=14336,
                                  rounds=1, pattern="sequential", seed=seed),
            io=EngineParams(num_queues=64),
            aging=None,
            policy=GcPolicy(kind="PLLGC", max_gc_threads=1),
            notes="half-fill, clean shutdown, compare chain load vs page scan",
        )
    raise ConfigurationError(f"unknown preset {name!r}")


def _config_for(bundle, seed, policy, queues=None):
    io = EngineParams(**{**bundle.io.__dict__})
    if queues is not None:
        io.num_queues = queues
    pol = GcPolicy(**{**policy.__dict__})
    return EngineConfig(profile=bundle.profile, io=io, policy=pol,
                        levels=bundle.levels, seed=seed)


def run_preset(name, seed=0, policy=None, queues=None):
    """Run one preset once under one policy; returns the report."""
    bundle = preset(name, seed)
    pol = policy or bundle.policy
    config = _config_for(bundle, seed, pol, queues)
    eng = Engine.start(config)
    try:
        if bundle.aging is not None:
            inject_aging(eng, bundle.aging)
        spec = WorkloadSpec(**{**bundle.workload.__dict__})
        spec.seed = seed
        report = drive(eng, spec, preset=name)
    finally:
        if eng.live:
            eng.shutdown(clean=True)
    return report


def run_queue_scaling(seed=0, queue_counts=(1, 2, 4, 8, 16, 32, 64)):
    """Throughput sweep; returns [(num_queues, MB_per_s_of_simulated_time)]."""
    out = []
    for q in queue_counts:
        report = run_preset("queue-scaling", seed=seed, queues=q)
        mb = report.user_bytes / (1024 * 1024)
        secs = report.elapsed_us / 1_000_000
        out.append((q, mb / secs if secs else 0.0))
    return out


def run_init_scan(seed=0):
    """Half-fill a card, save cleanly, then compare the read cost of the
    chained checkpoint load against a full page-level scan."""
    bundle = preset("init-scan", seed)
    config = _config_for(bundle, seed, bundle.policy)
    image = None
    eng = Engine.start(config)
    spec = WorkloadSpec(**{**bundle.workload.__dict__})
    spec.seed = seed
    drive(eng, spec, preset="init-scan")
    eng.shutdown(clean=True)
    device = eng.device

    # reload through the checkpoint chain, counting device reads
    from .checkpoint import Checkpointer
    from .ftl_state import FtlState
    from .sched import Scheduler

    def fresh_state():
        return FtlState(device.geometry, config.io.num_buffers,
                        config.export_ratio, sorted(device.bad_block_set()))

    before = device.device_stats().read_ops
    sched = Scheduler(seed)
    loader = Checkpointer(sched, device, fresh_state(), config.checkpoint_k)
    ok = sched.join(sched.spawn(loader.load(), "load"))
    load_reads = device.device_stats().read_ops - before
    if not ok:
        raise EngineStateError("checkpoint load failed on a clean image")

    before = device.device_stats().read_ops
    sched2 = Scheduler(seed)
    scanner = Checkpointer(sched2, device, fresh_state(), config.checkpoint_k)
    sched2.join(sched2.spawn(scanner.recovery_scan(), "scan"))
    scan_reads = device.device_stats().read_ops - before
    return {
        "load_reads": load_reads,
        "window_probes": loader.window_probes,
        "chain_reads": loader.chain_reads,
        "scan_reads": scan_reads,
        "ratio": scan_reads / load_reads if load_reads else 0.0,
        "num_banks": device.geometry.num_banks,
        "k": config.checkpoint_k,
    }


# ---- report emission ------------------------------------------------------------


def emit_report(report, outdir):
    """latency CSV, per-thread normalized-average CSV, summary text, JSON."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    p = os.path.join(outdir, "latency.csv")
    with open(p, "w") as fh:
        fh.write("request_id,bytes,latency_us,thread\n")
        for row in report.samples:
            fh.write(",".join(str(v) for v in row) + "\n")
    paths["latency"] = p
    p = os.path.join(outdir, "thread_latency.csv")
    norm = report.normalized_thread_latencies()
    with open(p, "w") as fh:
        fh.write("thread,avg_latency_us,normalized\n")
        for tid in sorted(norm):
            fh.write(f"{tid},{report.per_thread_avg_us[tid]:.3f},{norm[tid]:.6f}\n")
    paths["threads"] = p
    p = os.path.join(outdir, "summary.txt")
    with open(p, "w") as fh:
        fh.write(f"preset: {report.preset}\n")
        fh.write(f"policy: {report.policy}\n")
        fh.write(f"seed: {report.seed}\n")
        fh.write(f"elapsed_s: {report.elapsed_us / 1_000_000:.3f}\n")
        fh.write(f"user_bytes: {report.user_bytes}\n")
        fh.write(f"blocks_garbage_collected: {report.blocks_collected}\n")
        fh.write(f"write_amplification: {report.write_amplification:.4f}\n")
        for bound, count in report.over_threshold.items():
            fh.write(f"samples_over_{bound}us: {count}\n")
        fh.write(f"request_errors: {report.errors}\n")
    paths["summary"] = p
    p = os.path.join(outdir, "report.json")
    report.to_json(p)
    paths["json"] = p
    return paths
