"""Composition root: device + tables + IO engine + GC + checkpointing.

start() builds the simulated card (fresh from its profile, or from an image
file, which also carries the card's bad blocks), restores state via the
checkpoint chain or the page-level recovery scan, and launches the worker
actors. The IO workers and the GC collectors charge their host CPU on the
engine's one `CorePool` of `host_cores` cores. The handle exposes
asynchronous submit plus synchronous sector read/write/flush wrappers that
pump the virtual clock until the request completes, merged counters,
quiesced audits, and clean/dirty shutdown. A clean shutdown drains the
queues, stops the collectors, flushes every buffer (writers then collect
inline, whatever the GC policy), saves the checkpoint chain and optionally
persists the flash image; a dirty one drops the buffers cold to emulate a
crash. The GC policy itself is known only to the GC controller.
"""

import math
from dataclasses import dataclass, field

from .checkpoint import Checkpointer
from .errors import CheckpointError, ConfigurationError, EngineStateError
from .ftl_state import FtlState
from .gc_engine import GcController, GcPolicy
from .io_engine import EngineParams, IoEngine, IoRequest
from .sched import ActorFailed, CorePool, Scheduler
from .sim_flash import PROFILES, SimFlashDevice


@dataclass
class EngineConfig:
    profile: str = "desk8"
    image_path: str = None             # a card image, loaded when it exists
    io: EngineParams = field(default_factory=EngineParams)
    policy: GcPolicy = field(default_factory=GcPolicy)
    levels: list = None                # default: gc_engine.default_levels
    checkpoint_k: int = 4
    export_ratio: float = 0.875
    host_cores: int = 4
    seed: int = 0

    def validate(self):
        io, policy = self.io, self.policy
        if not (1 <= io.num_queues <= 4096):
            raise ConfigurationError("num_queues out of range")
        if io.num_buffers < 1:
            raise ConfigurationError("need at least one buffer")
        # a negative reserve lets user writes take a bank's last blocks, and
        # then GC has nowhere to copy to
        if not isinstance(io.gc_reserve_blocks, int) or io.gc_reserve_blocks < 0:
            raise ConfigurationError(
                "gc_reserve_blocks must be a whole number, not negative")
        # a wait must move the virtual clock forward (a zero poll period
        # spins an actor at one instant forever, and the scheduler truncates
        # a fractional one to zero), a cost must not move it back
        for owner, name, least in (
                (io, "daemon_tick_us", 1), (io, "gc_wait_us", 1),
                (io, "exhaust_timeout_us", 1), (policy, "idle_poll_us", 1),
                (policy, "master_tick_us", 1), (io, "cpu_us", 0),
                (policy, "copy_cpu_us", 0), (policy, "round_cpu_us", 0),
                (policy, "scan_cpu_us", 0)):
            value = getattr(owner, name)
            if not isinstance(value, int):
                raise ConfigurationError(
                    f"{name} must be a whole number of microseconds")
            if value < least:
                raise ConfigurationError(f"{name} must be positive" if least
                                         else f"{name} must not be negative")
        if not (0 <= io.idle_flush_seconds < math.inf):
            raise ConfigurationError("idle_flush_seconds must be finite and "
                                     "not negative")
        if not (0.0 < self.export_ratio <= 1.0):
            raise ConfigurationError("export_ratio must be in (0, 1]")
        if policy.kind not in ("NPGC", "PLLGC", "PLLGC_ADAPTIVE"):
            raise ConfigurationError(f"unknown GC policy {policy.kind!r}")
        # with no collector a writer waits for free space that never comes;
        # NPGC collects inline and starts none
        if policy.kind != "NPGC" and policy.max_gc_threads < 1:
            raise ConfigurationError(
                f"{policy.kind} needs max_gc_threads of at least 1")
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
    """Live engine handle, driven from one OS thread. Every actor below it
    runs on one cooperative scheduler and takes no lock. `submit` queues a
    request and `pump` runs the scheduler until an event fires; `run` and
    the synchronous sector methods pump until their generator or request
    is done."""

    def __init__(self, config):
        self.config = config.validate()
        self._had_image = False
        if config.image_path is not None:
            try:
                self.device = SimFlashDevice.load_image(config.image_path)
                self._had_image = True
            except FileNotFoundError:
                pass
        if not self._had_image:
            self.device = SimFlashDevice(PROFILES[config.profile])
        self.sched = Scheduler(config.seed)
        self.cores = CorePool(self.sched, config.host_cores)
        self.state = FtlState(self.device.geometry, config.io.num_buffers,
                              config.export_ratio,
                              sorted(self.device.bad_block_set()))
        self.ckpt = Checkpointer(self.sched, self.device, self.state,
                                 config.checkpoint_k)
        self.io = IoEngine(self.sched, self.device, self.state, config.io,
                           self.cores)
        self.gc = GcController(self.sched, self.device, self.state, config.policy,
                               self.cores, config.levels,
                               io_workers=config.io.num_queues)
        window_us = self.gc.policy.activity_window_us
        self.gc.io_activity = lambda: self.io.recent_active(window_us, self.sched.now)
        self.io.gc = self.gc
        self.live = False
        self.recovered_via = "fresh"
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
        if not clean:
            # simulated crash: the card is saved as the crash left it
            self.abort()
            if self.config.image_path is not None:
                self.device.save_image(self.config.image_path)
            return None
        if not self.live:
            raise EngineStateError("engine already shut down")
        self.live = False
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

    def abort(self):
        """Stop serving at once: buffers are dropped and nothing is flushed
        or saved, so the image file the engine started from is left as it
        was."""
        if not self.live:
            raise EngineStateError("engine already shut down")
        self.live = False
        self.io.running = False
        self.gc.stop()

    # ---- request surface ---------------------------------------------------------

    def run(self, gen, name="sync"):
        """Drive a generator to completion on the engine scheduler,
        surfacing the actor's own exception type."""
        actor = self.sched.spawn(gen, name)
        try:
            return self.sched.join(actor)
        except ActorFailed as failure:
            raise failure.exc from None

    def submit(self, req):
        return self.io.submit(req)

    def pump(self, event):
        return self.sched.pump(event)

    def _sync(self, req):
        if not self.live:
            raise EngineStateError("engine is not serving")
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
        self._baseline = (self.device.device_stats(),
                          dict(self.io.counters),
                          self.gc.stats.snapshot())

    def stats(self):
        dev = self.device.device_stats()
        base_dev, base_io, base_gc = self._baseline
        io = {k: v - base_io.get(k, 0) for k, v in self.io.counters.items()}
        gc = self.gc.stats.delta(base_gc)
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
            "elapsed_us": self.sched.now,
        }

    def audit(self, deep=False):
        return self.state.audit(self.device if deep else None)

    def dirty_sectors(self):
        """LSNs currently dirty in cache buffers (crash-test oracle aid)."""
        out = []
        for slot in self.io.slots:
            if slot.lpn is None:
                continue
            for s in range(self.io.spp):
                if slot.dirty & (1 << s):
                    out.append(slot.lpn * self.io.spp + s)
        return sorted(out)
