"""Deterministic virtual-time event loop.

Engine workers, GC threads, the flush daemon and benchmark clients all run
as cooperative actors (generators) on one Scheduler. An actor yields either
a delay, an `int` of microseconds (a negative one counts as zero), or an
Event to park on; any other value fails the actor with a TypeError. Time is
integer microseconds; ties are broken by submission order, so a fixed seed
plus a fixed workload gives bit-identical runs.

Runnable actors wait in two places. A FIFO `deque` holds those due now: new
actors, zero-delay yields and the waiters of a fired event. A heap of
`(time, sequence, actor)` holds those due later. Every heap entry due at
`now` was pushed before `now` reached that time, so it is older than all of
the FIFO: a heap entry due at `now` runs first, then the FIFO, then the heap
moves time forward. When an actor yields and nothing else is due at or
before its resume time (the FIFO is empty and the heap is empty or its head
is strictly later), it would be the next to run anyway, so it is resumed in
place, with no heap push or pop. Either way the order is that of one heap
ordered by time and submission.

`in_place_until()` asks that same question from inside a step: the running
actor, if it yielded now, would be resumed in place at any resume time
strictly before the time it returns. A step whose yield would resume in
place at `at` may do the work of that yield and of the resumed actor's next
step itself and move `now` to `at`; `_run` picks up a clock moved inside a
step. The IO engine serves a run of buffered sector writes this way in the
submitting client's step (`IoEngine.write_run`), which leaves virtual time
and every heap sequence number as they would be. So `events_processed`
counts the resumptions that ran, not the ones such a step stood in for, and
that work uses no pump budget.
"""

import heapq
import itertools
import math
import random
from collections import deque


class SchedulerHang(RuntimeError):
    """Raised when a pump exceeds its event budget (lost wakeup / livelock)."""


class ActorFailed(RuntimeError):
    def __init__(self, actor, exc):
        super().__init__(f"actor {actor.name!r} failed: {exc!r}")
        self.actor = actor
        self.exc = exc


class Event:
    """One-shot signal. Yielding a fired event resumes immediately."""

    __slots__ = ("_sched", "_waiters", "fired", "value")

    def __init__(self, sched):
        self._sched = sched
        self._waiters = []
        self.fired = False
        self.value = None

    def fire(self, value=None):
        if self.fired:
            return
        self.fired = True
        self.value = value
        if self._waiters:
            self._sched._ready.extend(self._waiters)
            self._waiters = []


class Actor:
    __slots__ = ("name", "gen", "done", "result", "error", "done_event")

    def __init__(self, sched, gen, name):
        self.name = name
        self.gen = gen
        self.done = False
        self.result = None
        self.error = None
        self.done_event = Event(sched)

    def __repr__(self):
        state = "done" if self.done else "live"
        return f"<Actor {self.name} {state}>"


class _Idle:
    """The event `run_until_idle` runs towards: it never fires."""

    __slots__ = ()
    fired = False


_IDLE = _Idle()


class Scheduler:
    def __init__(self, seed=0):
        self.now = 0
        self.rng = random.Random(seed)
        self._heap = []
        self._ready = deque()
        self._seq = itertools.count()
        self.events_processed = 0
        self._target = None               # the event `_run` runs towards

    def event(self):
        return Event(self)

    def spawn(self, gen, name="actor"):
        actor = Actor(self, gen, name)
        self._ready.append(actor)
        return actor

    def _schedule(self, actor, at):
        if at <= self.now:
            self._ready.append(actor)
        else:
            heapq.heappush(self._heap, (at, next(self._seq), actor))

    def _finish(self, actor, result=None, error=None):
        actor.done = True
        actor.result = result
        actor.error = error
        actor.done_event.fire(result)

    def in_place_until(self):
        """The time before which `_run` would resume the running actor in
        place if it yielded now: the head of the heap, or `math.inf` with an
        empty heap. None when it would resume it in place at no time: an
        actor is ready, the event being run towards has fired, or no `_run`
        is running. The pump budget is not consulted."""
        target = self._target
        if target is None or target.fired or self._ready:
            return None
        heap = self._heap
        return heap[0][0] if heap else math.inf

    def _run(self, event, max_events):
        """The one step loop: resume actors until `event` fires."""
        outer = self._target
        self._target = event
        try:
            return self._steps(event, max_events)
        finally:
            self._target = outer

    def _steps(self, event, max_events):
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        budget = max_events
        now = self.now
        while not event.fired:
            if not heap and not ready:
                if event is _IDLE:
                    return None
                raise SchedulerHang(
                    f"no runnable actors at t={now}us but event never fired")
            if budget <= 0:
                raise SchedulerHang(f"event budget exhausted at t={now}us")
            if heap and heap[0][0] <= now:
                actor = heappop(heap)[2]
            elif ready:
                actor = ready.popleft()
            else:
                now, _, actor = heappop(heap)
                self.now = now
            send = actor.gen.send
            while True:
                budget -= 1
                self.events_processed += 1
                try:
                    yielded = send(None)
                except StopIteration as stop:
                    now = self.now
                    self._finish(actor, stop.value)
                    break
                except Exception as exc:
                    self._finish(actor, error=exc)
                    raise ActorFailed(actor, exc) from exc
                now = self.now                # the step may have moved it
                if type(yielded) is int:
                    at = now + yielded if yielded > 0 else now
                elif isinstance(yielded, Event):
                    if not yielded.fired:
                        yielded._waiters.append(actor)
                        break
                    at = now
                else:
                    # time is whole microseconds: truncating a fractional
                    # delay would let the clocks drift apart unseen
                    exc = TypeError(
                        f"actor {actor.name!r} yielded {yielded!r}: a delay "
                        f"must be an int of microseconds or an Event")
                    self._finish(actor, error=exc)
                    raise exc
                if (ready or (heap and heap[0][0] <= at) or event.fired
                        or budget <= 0):
                    self._schedule(actor, at)
                    break
                # nothing else is due by `at`: resume in place
                if at != now:
                    now = self.now = at
        return event.value

    def pump(self, event, max_events=200_000_000):
        """Run until `event` fires. Budget guards against lost wakeups."""
        return self._run(event, max_events)

    def run_until_idle(self, max_events=200_000_000):
        self._run(_IDLE, max_events)

    def join(self, actor, max_events=200_000_000):
        self.pump(actor.done_event, max_events)
        if actor.error is not None:
            raise ActorFailed(actor, actor.error)
        return actor.result


class CorePool:
    """Host CPU model: every worker/collector compute charge occupies one of
    a fixed set of cores, so threads contend for cycles like kthreads on the
    modeled host. charge() books the earliest-free core (the first of
    several) and returns the delay the caller should yield. With a bound
    `before`, it books only a charge that ends strictly before it, and
    returns None, booking nothing, otherwise."""

    def __init__(self, sched, cores):
        self.sched = sched
        self.free_at = [0] * max(1, cores)

    def charge(self, duration_us, before=None):
        free_at = self.free_at
        now = self.sched.now
        start = min(free_at)
        best = free_at.index(start)
        if start < now:
            start = now
        done = start + duration_us
        if before is not None and done >= before:
            return None
        free_at[best] = done
        return done - now
