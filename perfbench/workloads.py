"""The benchmark's workloads: set-up, timed phase and output checks.

Every simulated client is a cooperative actor on the engine's virtual-time
scheduler and runs a closed loop: it submits one request and waits for its
acknowledgement before the next. Host time is measured around `setup` and
`run`; `check` runs outside the timed window.

- overwrite-npgc: the paper's spike experiment (preset npgc-vs-pllgc, NPGC
  side). One client overwrites a region 8x the buffer pool 16 times on an
  aged desk8 card; the per-sector write path dominates, no collector polls.
- thinktime-adaptive: preset adaptive-vs-pllgc under PLLGC_ADAPTIVE. 128
  think-time clients write at random on a deeply aged card with up to 8
  collectors, so collection rounds are a large share of host time.
- mixed-restart-card512: a fresh card of the paper's 64-bank geometry. It
  covers what the other two skip: device and table construction, the read
  path and buffer hits, and checkpoint save, chain load and recovery scan.
  GC reclaims nothing here.

Only public names of `bankftl` are used, and modules are looked up at call
time, so the tracer's wrappers (installed before a traced run) are seen.
"""

import random
import struct
import time

import numpy as np

import bankftl.bench as bench
from bankftl.checkpoint import Checkpointer
from bankftl.engine import Engine, EngineConfig
from bankftl.errors import AuditError
from bankftl.ftl_state import UNMAPPED, FtlState
from bankftl.gc_engine import GcPolicy
from bankftl.io_engine import EngineParams, IoRequest
from bankftl.sched import Scheduler

_VALUE_MASK = np.uint32(0x7FFFFFFF)


def _audit(label, audit, problems):
    """Runs a table audit; a failure becomes a problem of the run."""
    try:
        audit()
    except AuditError as exc:
        problems.append(f"{label} audit failed: {exc}")


class PresetWorkload:
    """W1/W2: a `bankftl.bench` preset on an aged card, driven by
    `bench.drive` (one latency sample per acknowledged page)."""

    def __init__(self, preset_name, use_alt_policy, seed, size):
        self.preset_name = preset_name
        self.use_alt_policy = use_alt_policy
        self.seed = seed
        self.size = size
        self.eng = None
        self.report = None

    def setup(self):
        bundle = bench.preset(self.preset_name, self.seed)
        policy = bundle.alt_policy if self.use_alt_policy else bundle.policy
        config = EngineConfig(profile=bundle.profile,
                              io=EngineParams(**vars(bundle.io)),
                              policy=GcPolicy(**vars(policy)),
                              levels=bundle.levels, seed=self.seed)
        self.spec = bench.WorkloadSpec(**vars(bundle.workload))
        self.spec.seed = self.seed
        if self.size == "tiny":
            self.spec.region_lpns = min(self.spec.region_lpns, 512)
            self.spec.rounds = 1
            self.spec.num_client_threads = max(1, self.spec.num_client_threads // 8)
        self.eng = Engine.start(config)
        bench.inject_aging(self.eng, bundle.aging)

    @property
    def device(self):
        return self.eng.device

    def run(self):
        self.report = bench.drive(self.eng, self.spec, preset=self.preset_name)

    def check(self):
        """Clean shutdown and table audit; returns the workload's results."""
        report = self.report
        self.eng.shutdown(clean=True)
        problems = []
        _audit("engine", self.eng.audit, problems)
        latencies = [s[2] for s in report.samples]
        spp = self.eng.device.geometry.sectors_per_page
        attempted = len(report.samples) * spp
        return {
            "elapsed_us": report.elapsed_us,
            "write_latencies_us": latencies,
            "read_latencies_us": [],
            "io": report.counters["io"],
            "gc": report.counters["gc"],
            "device": report.counters["device"],
            "write_amplification": report.write_amplification,
            "attempted": attempted,
            "request_errors": report.errors,
            "stale_reads": 0,
            "bad_reads": 0,
            "restore_mismatches": 0,
            "restore": None,
            "phases_s": {},
            "problems": problems,
        }


def _payload(lsn, version, sector):
    head = struct.pack("<QQ", lsn, version)
    return head + bytes(sector - len(head))


class MixedRestartWorkload:
    """W3: fill, read-mostly mix, clean shutdown, chain load and recovery
    scan on a fresh card. Payloads carry (lsn, version); every read is
    checked against a shadow of the last acknowledged write."""

    CLIENTS = {"full": 16, "tiny": 4}
    PAGES_PER_CLIENT = {"full": 128, "tiny": 96}
    HOT_PAGES = {"full": 8, "tiny": 4}        # 16 x 8 = 128 pages < 256 buffers
    MIX_OPS = {"full": 4096, "tiny": 256}     # per client
    READ_SHARE = 0.7
    HOT_SHARE = 0.5
    PROFILE = {"full": "card512", "tiny": "desk8"}

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.clients = self.CLIENTS[size]
        self.pages = self.PAGES_PER_CLIENT[size]
        self.hot = self.HOT_PAGES[size]
        self.mix_ops = self.MIX_OPS[size]
        self.config = EngineConfig(
            profile=self.PROFILE[size], io=EngineParams(num_queues=64),
            policy=GcPolicy(kind="PLLGC", max_gc_threads=1), seed=seed)
        self.eng = None

    def setup(self):
        self.eng = Engine.start(self.config)

    @property
    def device(self):
        return self.eng.device

    # ---- client actors ---------------------------------------------------

    def _client(self, tid, lsns_and_kinds):
        # each client owns its pages and waits for every acknowledgement,
        # so the shadow holds exactly the last acknowledged version
        eng = self.eng
        sector = eng.device.geometry.read_unit
        shadow = self.shadow
        for kind, lsn in lsns_and_kinds:
            if kind == "w":
                version = shadow.get(lsn, 0) + 1
                req = IoRequest("write", lsn, _payload(lsn, version, sector))
            else:
                req = IoRequest("read", lsn)
            t0 = eng.sched.now
            eng.io.submit(req)
            if not req.done.fired:
                yield req.done
            latency = eng.sched.now - t0
            if req.error is not None:
                self.request_errors += 1
                continue
            if kind == "w":
                shadow[lsn] = version
                self.write_lat.append(latency)
                continue
            self.read_lat.append(latency)
            got = struct.unpack_from("<QQ", req.result)
            want = shadow.get(lsn, 0)
            if got == ((lsn, want) if want else (0, 0)):
                continue
            self.bad_reads += 1
            if got[1] < want and got[0] in (lsn, 0):
                self.stale_reads += 1        # an older version, or never-written zeros

    def _fill_plan(self, tid):
        spp = self.eng.device.geometry.sectors_per_page
        base = tid * self.pages * spp
        return [("w", base + i) for i in range(self.pages * spp)]

    def _mix_plan(self, tid):
        spp = self.eng.device.geometry.sectors_per_page
        rng = random.Random((self.seed << 20) ^ (tid * 0x9E3779B1))
        base = tid * self.pages
        plan = []
        for _ in range(self.mix_ops):
            if rng.random() < self.HOT_SHARE:
                page = base + rng.randrange(self.hot)
            else:
                page = base + self.hot + rng.randrange(self.pages - self.hot)
            kind = "r" if rng.random() < self.READ_SHARE else "w"
            plan.append((kind, page * spp + rng.randrange(spp)))
        return plan

    def _run_clients(self, plans):
        actors = [self.eng.sched.spawn(self._client(tid, plan), f"client-{tid}")
                  for tid, plan in enumerate(plans)]
        for actor in actors:
            self.eng.pump(actor.done_event)
            if actor.error is not None:
                raise actor.error

    def _fresh_state(self):
        device, cfg = self.eng.device, self.config
        return FtlState(device.geometry, cfg.io.num_buffers, cfg.export_ratio,
                        sorted(device.bad_block_set()))

    def _restore(self, method):
        """Rebuild the tables into a fresh FtlState on a fresh scheduler;
        returns (checkpointer, ok, virtual us, device reads, host s)."""
        device = self.eng.device
        t0 = time.perf_counter()
        before = device.device_stats().read_ops
        sched = Scheduler(self.seed)
        ckpt = Checkpointer(sched, device, self._fresh_state(),
                            self.config.checkpoint_k)
        gen = ckpt.load() if method == "load" else ckpt.recovery_scan()
        ok = sched.join(sched.spawn(gen, method))
        reads = device.device_stats().read_ops - before
        return ckpt, ok, sched.now, reads, time.perf_counter() - t0

    def run(self):
        eng = self.eng
        self.shadow = {}
        self.write_lat, self.read_lat = [], []
        self.request_errors = self.bad_reads = self.stale_reads = 0
        t0 = time.perf_counter()
        start_us = eng.sched.now
        self._run_clients([self._fill_plan(t) for t in range(self.clients)])
        t1 = time.perf_counter()
        self._run_clients([self._mix_plan(t) for t in range(self.clients)])
        self.elapsed_us = eng.sched.now - start_us
        self.serving = eng.stats()
        t2 = time.perf_counter()
        self.head = eng.shutdown(clean=True)
        t3 = time.perf_counter()
        self.loader, self.load_ok, self.load_us, self.load_reads, load_s = \
            self._restore("load")
        self.scanner, _, self.scan_us, self.scan_reads, scan_s = \
            self._restore("scan")
        self.phases = {"fill": t1 - t0, "mix": t2 - t1, "shutdown": t3 - t2,
                       "load": load_s, "scan": scan_s}

    def check(self):
        eng = self.eng
        g = eng.device.geometry
        spp = g.sectors_per_page
        live = eng.state.map & _VALUE_MASK
        problems = []
        _audit("engine", eng.audit, problems)
        _audit("chain-loaded state", self.loader.state.audit, problems)
        _audit("scanned state", self.scanner.state.audit, problems)
        loaded = self.loader.state.map & _VALUE_MASK
        scanned = self.scanner.state.map & _VALUE_MASK
        load_diff = int(np.count_nonzero(loaded != live))
        scan_diff = int(np.count_nonzero(scanned != live))
        # every acknowledged sector must read back its last version through
        # the chain-loaded map
        mismatched = 0
        pages = {}
        for lsn, version in self.shadow.items():
            pages.setdefault(lsn // spp, []).append((lsn, version))
        for lpn, entries in sorted(pages.items()):
            ppn = int(loaded[lpn])
            if ppn == UNMAPPED:
                mismatched += len(entries)
                continue
            data, _, _ = eng.device.read_page(g.split_ppn(ppn))
            for lsn, version in entries:
                off = (lsn % spp) * g.read_unit
                if struct.unpack_from("<QQ", data, off) != (lsn, version):
                    mismatched += 1
        # stale reads are the known io_engine defect: counted as failed
        # operations, but not a failed check of the benchmark
        if not self.load_ok:
            problems.append("chain load failed")
        if load_diff:
            problems.append(f"chain-loaded map differs from the live map "
                            f"at {load_diff} LPNs")
        if scan_diff:
            problems.append(f"scanned map differs from the live map "
                            f"at {scan_diff} LPNs")
        if mismatched:
            problems.append(f"{mismatched} acknowledged sectors did not read "
                            f"back their last version after the chain load")
        attempted = (len(self.write_lat) + len(self.read_lat)
                     + self.request_errors + len(self.shadow))
        return {
            "elapsed_us": self.elapsed_us,
            "write_latencies_us": self.write_lat,
            "read_latencies_us": self.read_lat,
            "io": self.serving["io"],
            "gc": self.serving["gc"],
            "device": self.serving["device"],
            "write_amplification": self.serving["write_amplification"] or 0.0,
            "attempted": attempted,
            "request_errors": self.request_errors,
            "stale_reads": self.stale_reads,
            "bad_reads": self.bad_reads,
            "restore_mismatches": mismatched,
            "restore": {
                "checkpoint_head": list(self.head) if self.head else None,
                "load_ok": bool(self.load_ok),
                "load_us": self.load_us, "load_reads": self.load_reads,
                "scan_us": self.scan_us, "scan_reads": self.scan_reads,
                "load_map_equal": load_diff == 0,
                "scan_map_equal": scan_diff == 0,
                "readback_mismatches": mismatched,
            },
            "phases_s": self.phases,
            "problems": problems,
        }


WORKLOADS = {
    "overwrite-npgc": lambda seed, size: PresetWorkload(
        "npgc-vs-pllgc", True, seed, size),
    "thinktime-adaptive": lambda seed, size: PresetWorkload(
        "adaptive-vs-pllgc", False, seed, size),
    "mixed-restart-card512": lambda seed, size: MixedRestartWorkload(seed, size),
}
