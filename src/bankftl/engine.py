"""Composition root: device + tables + IO engine + GC + checkpointing.

start() builds the simulated card (fresh or from an image file), restores
state via the checkpoint chain or the page-level recovery scan, and launches
the worker actors. The handle exposes asynchronous submit plus synchronous
sector read/write/flush wrappers that pump the virtual clock until the
request completes, merged counters, quiesced audits, and clean/dirty
shutdown. A clean shutdown drains the queues, stops the collectors, flushes
every buffer (writers then collect inline, whatever the GC policy), saves
the checkpoint chain and optionally persists the flash image; a dirty one
drops the buffers cold to emulate a crash. The GC policy itself is known
only to the GC controller.
"""

import threading
from dataclasses import dataclass, field

from .checkpoint import Checkpointer
from .errors import CheckpointError, ConfigurationError, EngineStateError
from .ftl_state import FtlState
from .gc_engine import GcController, GcPolicy, default_levels
from .io_engine import EngineParams, IoEngine, IoRequest
from .sched import ActorFailed, CorePool, Scheduler
from .sim_flash import PROFILES, LatencyModel, SimFlashDevice


@dataclass
class EngineConfig:
    profile: str = "desk8"
    geometry: object = None            # overrides profile when set
    model: LatencyModel = None
    bad_blocks: tuple = ()
    image_path: str = None
    io: EngineParams = field(default_factory=EngineParams)
    policy: GcPolicy = field(default_factory=GcPolicy)
    levels: list = None
    checkpoint_k: int = 4
    export_ratio: float = 0.875
    host_cores: int = 4
    seed: int = 0

    def validate(self):
        if not (1 <= self.io.num_queues <= 4096):
            raise ConfigurationError("num_queues out of range")
        if self.io.num_buffers < 1:
            raise ConfigurationError("need at least one buffer")
        if not (0.0 < self.export_ratio <= 1.0):
            raise ConfigurationError("export_ratio must be in (0, 1]")
        if self.policy.kind not in ("NPGC", "PLLGC", "PLLGC_ADAPTIVE"):
            raise ConfigurationError(f"unknown GC policy {self.policy.kind!r}")
        if not (1 <= self.checkpoint_k):
            raise ConfigurationError("checkpoint window must be positive")
        if self.levels is not None:
            frees = [lvl.free_threshold for lvl in self.levels]
            if frees != sorted(frees, reverse=True) or len(set(frees)) != len(frees):
                raise ConfigurationError("level free thresholds must strictly decrease")
            valids = [lvl.valid_threshold for lvl in self.levels]
            if valids != sorted(valids) or valids[0] != 0:
                raise ConfigurationError(
                    "valid thresholds must be non-decreasing from 0")
        return self


class Engine:
    """Live engine handle. start()/shutdown() must not race each other;
    everything else is safe from any thread. Below this facade, every actor
    runs on one cooperative scheduler and takes no lock; the pump lock is
    the one boundary for OS threads, and every method that submits, pumps
    or reads engine state holds it."""

    def __init__(self, config):
        self.config = config.validate()
        geometry = config.geometry or PROFILES[config.profile]
        if config.image_path is not None:
            try:
                self.device = SimFlashDevice.load_image(config.image_path)
                self._had_image = True
            except FileNotFoundError:
                self.device = SimFlashDevice(geometry, config.model,
                                             config.bad_blocks)
                self._had_image = False
        else:
            self.device = SimFlashDevice(geometry, config.model, config.bad_blocks)
            self._had_image = False
        self.sched = Scheduler(config.seed)
        self.cores = CorePool(self.sched, config.host_cores)
        self.state = FtlState(self.device.geometry, config.io.num_buffers,
                              config.export_ratio,
                              sorted(self.device.bad_block_set()))
        self.ckpt = Checkpointer(self.sched, self.device, self.state,
                                 config.checkpoint_k)
        self.io = IoEngine(self.sched, self.device, self.state, config.io)
        self.gc = GcController(self.sched, self.device, self.state, config.policy,
                               config.levels or default_levels(self.device.geometry),
                               io_workers=config.io.num_queues)
        window_us = self.gc.policy.activity_window_us
        self.gc.io_activity = lambda: self.io.recent_active(window_us, self.sched.now)
        self.io.cores = self.cores
        self.gc.cores = self.cores
        self.io.gc = self.gc
        self.live = False
        self.recovered_via = "fresh"
        self._pump_lock = threading.RLock()
        self._workers = []
        self._daemon = None
        self._baseline = None

    # ---- lifecycle ------------------------------------------------------------

    @classmethod
    def start(cls, config):
        eng = cls(config)
        if eng._had_image:
            restored = eng.run(eng.ckpt.load())
            if restored:
                eng.recovered_via = "checkpoint"
            else:
                eng.run(eng.ckpt.recovery_scan())
                eng.recovered_via = "recovery_scan"
            eng.run(eng.ckpt.ensure_free_pool())
        eng._workers = eng.io.start_workers()
        eng.gc.start()
        eng._daemon = eng.sched.spawn(eng.io.flush_daemon_loop(), "flush-daemon")
        eng.live = True
        eng.reset_baseline()
        return eng

    def shutdown(self, clean=True):
        if not self.live:
            raise EngineStateError("engine already shut down")
        self.live = False
        if not clean:
            # simulated crash: buffers dropped, nothing flushed or saved
            self.io.running = False
            self.gc.stop()
            if self.config.image_path is not None:
                self.device.save_image(self.config.image_path)
            return None
        self.io.stop()
        for actor in self._workers:
            if not actor.done:
                self.sched.join(actor)
        self.gc.stop()
        for actor in self.gc._actors:
            if not actor.done:
                self.sched.join(actor)
        if self._daemon is not None and not self._daemon.done:
            self.sched.join(self._daemon)
        # collectors are stopped, so the final flush reclaims inline if the
        # card is tight
        self.run(self.io.flush_all())
        try:
            head = self.run(self.ckpt.save())
        except CheckpointError as exc:
            # state stays recoverable through the page-level scan
            self.io.error_log.append((self.sched.now, "checkpoint", -1, repr(exc)))
            head = None
        if self.config.image_path is not None:
            self.device.save_image(self.config.image_path)
        return head

    # ---- request surface ---------------------------------------------------------

    def run(self, gen, name="sync"):
        """Drive a generator to completion on the engine scheduler,
        surfacing the actor's own exception type."""
        with self._pump_lock:
            actor = self.sched.spawn(gen, name)
            try:
                return self.sched.join(actor)
            except ActorFailed as failure:
                raise failure.exc from None

    def submit(self, req):
        with self._pump_lock:
            return self.io.submit(req)

    def pump(self, event):
        with self._pump_lock:
            return self.sched.pump(event)

    def _sync(self, req):
        if not self.live:
            raise EngineStateError("engine is not serving")
        with self._pump_lock:
            self.io.submit(req)
            self.sched.pump(req.done)
        if req.error is not None:
            raise req.error
        return req.result

    def write_sector(self, lsn, data):
        return self._sync(IoRequest("write", lsn, data))

    def read_sector(self, lsn):
        return self._sync(IoRequest("read", lsn))

    def flush(self):
        return self._sync(IoRequest("flush", 0))

    # ---- introspection --------------------------------------------------------------

    def reset_baseline(self):
        with self._pump_lock:
            self._baseline = (self.device.device_stats(),
                              dict(self.io.counters),
                              self.gc.stats.snapshot())

    def stats(self):
        with self._pump_lock:
            dev = self.device.device_stats()
            base_dev, base_io, base_gc = self._baseline
            io = {k: v - base_io.get(k, 0) for k, v in self.io.counters.items()}
            gc = self.gc.stats.delta(base_gc)
            now = self.sched.now
        flash_pages = dev.pages_written - base_dev.pages_written
        spp = self.device.geometry.sectors_per_page
        user_pages = io["user_sectors_written"] / spp
        wa = (flash_pages / user_pages) if user_pages else None
        return {
            "io": io,
            "gc": gc.__dict__,
            "device": {
                "pages_written": flash_pages,
                "read_ops": dev.read_ops - base_dev.read_ops,
                "read_units": dev.read_units - base_dev.read_units,
                "blocks_erased": dev.blocks_erased - base_dev.blocks_erased,
                "wear_events": dev.wear_events,
            },
            "write_amplification": wa,
            "elapsed_us": now,
        }

    def audit(self, deep=False):
        with self._pump_lock:
            return self.state.audit(self.device if deep else None)

    def dirty_sectors(self):
        """LSNs currently dirty in cache buffers (crash-test oracle aid)."""
        out = []
        with self._pump_lock:
            for slot in self.io.slots:
                if slot.lpn is None:
                    continue
                for s in range(self.io.spp):
                    if slot.dirty & (1 << s):
                        out.append(slot.lpn * self.io.spp + s)
        return sorted(out)
