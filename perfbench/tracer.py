"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of `bankftl` at run time (no file under
`src/` changes) and records one span per call: its operation, start, end and
parent span. Actors are timed per resumption: `Scheduler.spawn` hands the
scheduler a wrapper whose `send` opens a span, labelled by the module that
owns the actor's generator (io workers and the flush daemon -> io_engine,
collectors -> gc_engine, load/scan/save -> checkpoint, clients -> bench).
Generator functions reached through `yield from` (inline NPGC collection,
`collect_block`, a collector round, the checkpoint save) get the same
per-resumption spans, nested inside the actor's.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory (flat arrays) and are written out once, by `dump`.
"""

import contextlib
import time
from array import array

import numpy as np

import bankftl.bench
import bankftl.oob
from bankftl.checkpoint import Checkpointer
from bankftl.engine import Engine
from bankftl.ftl_state import FtlState
from bankftl.gc_engine import GcController
from bankftl.io_engine import IoEngine
from bankftl.sched import CorePool, Scheduler
from bankftl.sim_flash import SimFlashDevice
from metrics import LAYERS

ROOT = "unattributed"

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.op_names = []
        self.op_layers = []
        self.spans = []          # closed spans per op
        self.incl = []           # inclusive seconds per op
        self.own = []            # self seconds per op
        self.invocations = []    # calls of a generator function (not resumptions)
        self.hits = []           # calls that returned something other than None
        self._op_ids = {}
        self._stack = []         # open spans: [index, op, start, child seconds]
        self._patched = []
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # ---- spans -------------------------------------------------------------

    def op(self, name, layer):
        op = self._op_ids.get(name)
        if op is None:
            op = self._op_ids[name] = len(self.op_names)
            self.op_names.append(name)
            self.op_layers.append(layer)
            for column in (self.spans, self.invocations, self.hits):
                column.append(0)
            self.incl.append(0.0)
            self.own.append(0.0)
        return op

    def open(self, op):
        stack = self._stack
        index = len(self.span_op)
        self.span_op.append(op)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        start = _perf()
        self.span_start.append(start)
        stack.append([index, op, start, 0.0])

    def close(self):
        end = _perf()
        index, op, start, child = self._stack.pop()
        duration = end - start
        self.incl[op] += duration
        self.own[op] += duration - child
        self.spans[op] += 1
        self.span_end[index] = end
        if self._stack:
            self._stack[-1][3] += duration

    @contextlib.contextmanager
    def section(self, name):
        """Root span around a phase of the benchmark itself (set-up, timed
        window); its self time is host time no wrapped call accounts for."""
        self.open(self.op(name, ROOT))
        try:
            yield
        finally:
            self.close()

    def totals(self):
        """Per-op (layer, spans, inclusive s, self s, invocations, hits)."""
        return {name: (self.op_layers[op], self.spans[op], self.incl[op],
                       self.own[op], self.invocations[op], self.hits[op])
                for name, op in self._op_ids.items()}

    def dump(self, path):
        np.savez(path,
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 op_names=np.array(self.op_names),
                 op_layers=np.array(self.op_layers))

    # ---- wrappers -------------------------------------------------------------

    def _replace(self, owner, attr, make):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        self._patched.append((owner, attr, raw))

    def wrap_call(self, owner, attr, layer, count_hits=False):
        tracer = self
        op = self.op(f"{getattr(owner, '__name__', owner)}.{attr}", layer)

        def make(fn):
            def traced(*args, **kwargs):
                tracer.open(op)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close()
                if count_hits and result is not None:
                    tracer.hits[op] += 1
                return result
            return traced
        self._replace(owner, attr, make)

    def wrap_generator(self, owner, attr, layer, count_hits=False):
        tracer = self
        op = self.op(f"{owner.__name__}.{attr}", layer)

        def make(fn):
            def traced(*args, **kwargs):
                tracer.invocations[op] += 1
                return TracedIter(tracer, fn(*args, **kwargs), op, count_hits)
            return traced
        self._replace(owner, attr, make)

    def actor_op(self, gen):
        if isinstance(gen, TracedIter):
            return self.op("actor " + self.op_names[gen.op], self.op_layers[gen.op])
        frame = gen.gi_frame
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        layer = module.rpartition(".")[2] if module.startswith("bankftl.") else "bench"
        return self.op("actor " + gen.__qualname__,
                       layer if layer in LAYERS else "bench")

    def install(self):
        """Wrap the public surface of every layer; `uninstall` undoes it."""
        tracer = self
        spawn = vars(Scheduler)["spawn"]

        def traced_spawn(sched, gen, name="actor"):
            return spawn(sched, TracedIter(tracer, gen, tracer.actor_op(gen)), name)
        Scheduler.spawn = traced_spawn
        self._patched.append((Scheduler, "spawn", spawn))

        for attr in ("pump", "event"):
            self.wrap_call(Scheduler, attr, "sched")
        self.wrap_call(CorePool, "charge", "sched")
        for attr in ("__init__", "write_page", "read_page", "erase_block"):
            self.wrap_call(SimFlashDevice, attr, "sim_flash")
        for attr in ("__init__", "map_lookup", "map_update_locked", "map_update_if",
                     "alloc_page_in_bank", "alloc_free_block", "release_block",
                     "mark_valid", "mark_invalid", "buf_find", "buf_set",
                     "try_claim_alloc", "release_alloc", "next_sequence"):
            self.wrap_call(FtlState, attr, "ftl_state")
        for attr in ("encode_spare", "decode_spare"):
            self.wrap_call(bankftl.oob, attr, "oob")
        self.wrap_call(IoEngine, "submit", "io_engine")
        self.wrap_call(GcController, "select_victim", "gc_engine", count_hits=True)
        self.wrap_call(GcController, "master_tick", "gc_engine")
        for attr in ("npgc_before_write", "collect_block"):
            self.wrap_generator(GcController, attr, "gc_engine")
        self.wrap_generator(GcController, "gc_worker_round", "gc_engine",
                            count_hits=True)
        self.wrap_generator(Checkpointer, "save", "checkpoint")
        for attr in ("start", "pump", "run", "stats", "shutdown"):
            self.wrap_call(Engine, attr, "engine")
        for attr in ("inject_aging", "drive"):
            self.wrap_call(bankftl.bench, attr, "bench")
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()


class TracedIter:
    """Stands in for a generator: each resumption is one span. Works both
    as an actor body (the scheduler calls `send`) and under `yield from`
    (which calls `__next__`); the generator's return value passes through."""

    __slots__ = ("tracer", "gen", "op", "count_hits")

    def __init__(self, tracer, gen, op, count_hits=False):
        self.tracer = tracer
        self.gen = gen
        self.op = op
        self.count_hits = count_hits

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self.tracer
        tracer.open(self.op)
        try:
            return self.gen.send(value)
        except StopIteration as stop:
            if self.count_hits and stop.value is not None:
                tracer.hits[self.op] += 1
            raise
        finally:
            tracer.close()

    def throw(self, *exc):
        return self.gen.throw(*exc)

    def close(self):
        self.gen.close()
