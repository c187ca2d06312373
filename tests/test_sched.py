import collections
import heapq
import itertools
import math
import random

import pytest

from bankftl.sched import (Actor, ActorFailed, CorePool, Event, Scheduler,
                           SchedulerHang)


def test_sleep_ordering_deterministic():
    seen = []

    def actor(name, delay):
        yield delay
        seen.append((name, None))
        yield delay
        seen.append((name, None))

    for _ in range(3):
        seen.clear()
        sched = Scheduler(7)
        sched.spawn(actor("a", 10), "a")
        sched.spawn(actor("b", 10), "b")
        sched.spawn(actor("c", 5), "c")
        sched.run_until_idle()
        first = list(seen)
    assert [n for n, _ in first] == ["c", "a", "b", "c", "a", "b"]


def test_event_wakeup_and_value():
    sched = Scheduler(0)
    ev = sched.event()
    got = []

    def waiter():
        yield ev
        got.append(ev.value)

    def firer():
        yield 50
        ev.fire("ping")

    sched.spawn(waiter(), "w")
    sched.spawn(firer(), "f")
    sched.run_until_idle()
    assert got == ["ping"]
    assert sched.now == 50


def test_yield_on_fired_event_resumes():
    sched = Scheduler(0)
    ev = sched.event()
    ev.fire(1)

    def waiter():
        yield ev
        return "done"

    actor = sched.spawn(waiter(), "w")
    assert sched.join(actor) == "done"


def test_join_propagates_actor_errors():
    sched = Scheduler(0)

    def boom():
        yield 1
        raise ValueError("nope")

    actor = sched.spawn(boom(), "boom")
    with pytest.raises(ActorFailed):
        sched.join(actor)


@pytest.mark.parametrize("delay", [1.7, 2.0, True, "3"])
def test_a_delay_that_is_not_an_int_fails_its_actor(delay):
    sched = Scheduler(0)
    resumed = []

    def sleeper():
        yield delay
        resumed.append(sched.now)

    actor = sched.spawn(sleeper(), "sleeper")
    with pytest.raises(TypeError, match="'sleeper'"):
        sched.run_until_idle()
    assert resumed == [] and sched.now == 0
    assert actor.done and isinstance(actor.error, TypeError)


def test_pump_detects_lost_wakeup():
    sched = Scheduler(0)
    never = sched.event()
    with pytest.raises(SchedulerHang):
        sched.pump(never)


def test_time_never_goes_backwards():
    sched = Scheduler(0)
    stamps = []

    def actor(d):
        for _ in range(5):
            stamps.append(sched.now)
            yield d

    sched.spawn(actor(3), "a")
    sched.spawn(actor(7), "b")
    sched.run_until_idle()
    assert stamps == sorted(stamps)


def test_core_pool_serializes_beyond_capacity():
    sched = Scheduler(0)
    pool = CorePool(sched, 2)
    # three simultaneous 100us charges on two cores: two run, one queues
    delays = [pool.charge(100) for _ in range(3)]
    assert delays == [100, 100, 200]


def test_core_pool_idle_cores_run_parallel():
    sched = Scheduler(0)
    pool = CorePool(sched, 4)
    assert [pool.charge(50) for _ in range(4)] == [50, 50, 50, 50]


def test_core_pool_picks_first_of_equally_free_cores():
    sched = Scheduler(0)
    pool = CorePool(sched, 3)
    pool.free_at[:] = [30, 10, 10]
    assert pool.charge(5) == 15
    assert pool.free_at == [30, 15, 10]


def test_core_pool_charge_books_only_below_its_bound():
    sched = Scheduler(0)
    pool = CorePool(sched, 2)
    pool.free_at[:] = [30, 10]
    assert pool.charge(5, before=15) is None     # would end at the bound
    assert pool.free_at == [30, 10]
    assert pool.charge(5, before=16) == 15
    assert pool.free_at == [30, 15]
    sched.now = 20                               # an idle core starts now
    assert pool.charge(5, before=25) is None
    assert pool.charge(5, before=26) == 5
    assert pool.free_at == [30, 25]


# ---- order oracle: the scheduler against a heap-only reference ---------------

class _PushToHeap:
    """The reference's stand-in for the ready FIFO: fired events and spawns
    go through its heap like every other wakeup."""

    def __init__(self, sched):
        self.sched = sched

    def append(self, actor):
        self.sched._schedule(actor, self.sched.now)

    def extend(self, actors):
        for actor in actors:
            self.append(actor)


class HeapScheduler:
    """Reference order: one heap of (time, submission, actor) holds every
    runnable actor, and each step pops its head; no FIFO, no in-place
    resume."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = itertools.count()
        self._ready = _PushToHeap(self)
        self.events_processed = 0

    def event(self):
        return Event(self)

    def spawn(self, gen, name="actor"):
        actor = Actor(self, gen, name)
        self._schedule(actor, self.now)
        return actor

    def _schedule(self, actor, at):
        heapq.heappush(self._heap, (at, next(self._seq), actor))

    def _step(self):
        at, _, actor = heapq.heappop(self._heap)
        if at > self.now:
            self.now = at
        self.events_processed += 1
        try:
            yielded = actor.gen.send(None)
        except StopIteration as stop:
            actor.done = True
            actor.result = stop.value
            actor.done_event.fire(stop.value)
            return
        if isinstance(yielded, Event):
            if yielded.fired:
                self._schedule(actor, self.now)
            else:
                yielded._waiters.append(actor)
        else:
            self._schedule(actor, self.now + max(0, int(yielded)))

    def pump(self, event, max_events=200_000_000):
        budget = max_events
        while not event.fired:
            if not self._heap:
                raise SchedulerHang(
                    f"no runnable actors at t={self.now}us but event never fired")
            if budget <= 0:
                raise SchedulerHang(f"event budget exhausted at t={self.now}us")
            self._step()
            budget -= 1
        return event.value

    def run_until_idle(self, max_events=200_000_000):
        budget = max_events
        while self._heap:
            if budget <= 0:
                raise SchedulerHang(f"event budget exhausted at t={self.now}us")
            self._step()
            budget -= 1


DELAYS = (0, 0, 0, 1, 1, 2, 3, 5, -4, 4)


def random_program(rng, events, depth=0):
    ops = []
    for _ in range(rng.randrange(1, 14)):
        r = rng.random()
        if r < 0.45:
            ops.append(("sleep", rng.choice(DELAYS)))
        elif r < 0.65:
            ops.append(("wait", rng.randrange(events)))
        elif r < 0.88:
            ops.append(("fire", rng.randrange(events)))
        elif depth < 2:
            ops.append(("spawn", random_program(rng, events, depth + 1)))
    return ops


def program_actor(sched, events, trace, name, ops):
    """Records (now, name) on every resumption; sleeps, parks on fired and
    unfired events, fires events others wait on and spawns children."""
    trace.append((sched.now, name))
    children = 0
    for op, arg in ops:
        if op == "fire":
            events[arg].fire(name)
            continue
        if op == "spawn":
            child = f"{name}.{children}"
            children += 1
            sched.spawn(program_actor(sched, events, trace, child, arg), child)
            continue
        yield arg if op == "sleep" else events[arg]
        trace.append((sched.now, name))


def run_scenario(sched, seed, actor=program_actor, budgets=True):
    """One random scenario; `actor` runs the programs, and without
    `budgets` every pump runs unbounded."""
    rng = random.Random(seed)
    n_events = rng.randrange(2, 7)
    roots = [random_program(rng, n_events) for _ in range(rng.randrange(1, 7))]
    late = random_program(rng, n_events)
    prefired = [rng.random() < 0.25 for _ in range(n_events)]
    first, second = rng.randrange(n_events), rng.randrange(n_events)
    first_budget = rng.choice((1, 2, 3, 5, 8, 200_000_000))
    idle_budget = rng.choice((4, 200_000_000))
    if not budgets:
        first_budget = idle_budget = 200_000_000

    trace, outcomes = [], []
    events = [sched.event() for _ in range(n_events)]
    for ev, fired in zip(events, prefired):
        if fired:
            ev.fire("pre")
    for i, ops in enumerate(roots):
        sched.spawn(actor(sched, events, trace, f"a{i}", ops), f"a{i}")

    def attempt(run):
        try:
            outcomes.append(("ok", run(), sched.now, sched.events_processed))
        except SchedulerHang as exc:
            outcomes.append(("hang", str(exc), sched.now, sched.events_processed))

    attempt(lambda: sched.pump(events[first], first_budget))
    sched.spawn(actor(sched, events, trace, "late", late), "late")
    attempt(lambda: sched.pump(events[second]))
    attempt(lambda: sched.run_until_idle(idle_budget))
    attempt(sched.run_until_idle)
    return trace, outcomes, sched.events_processed, sched.now


@pytest.mark.parametrize("block", range(4))
def test_resumption_order_matches_heap_reference(block):
    for seed in range(block * 250, (block + 1) * 250):
        got = run_scenario(Scheduler(seed), seed)
        want = run_scenario(HeapScheduler(), seed)
        assert got == want, f"seed {seed}"


def test_pump_return_requeues_the_actor_it_was_resuming():
    # `a` fires the pumped event while `b` is due at the same instant: after
    # the pump returns, `b` (queued first) still runs before `a` resumes
    for sched in (Scheduler(0), HeapScheduler()):
        ev = sched.event()
        seen = []

        def a():
            yield 5
            ev.fire()
            yield 0
            seen.append(("a", sched.now))

        def b():
            yield 5
            seen.append(("b", sched.now))

        sched.spawn(a(), "a")
        sched.spawn(b(), "b")
        sched.pump(ev)
        assert seen == []
        sched.run_until_idle()
        assert seen == [("b", 5), ("a", 5)]
        assert sched.events_processed == 5


# ---- the in-place predicate and a clock moved inside a step ------------------

def _resume_at(sched, op, arg, events):
    """Where `_run` would put an actor yielding this op now; None when it
    parks on an unfired event."""
    if op == "sleep":
        return sched.now + max(0, int(arg))
    return sched.now if events[arg].fired else None


class DecisionScheduler(Scheduler):
    """Notes every actor `_run` requeues after a yield, and which
    predicate record a budget hang cut short."""

    def __init__(self, seed):
        super().__init__(seed)
        self.requeued = set()
        self.decisions = []           # [predicate, resumed in place]
        self.last_yield = None

    def _schedule(self, actor, at):
        self.requeued.add(actor.name)
        super()._schedule(actor, at)

    def _run(self, event, max_events):
        try:
            return super()._run(event, max_events)
        except SchedulerHang as exc:
            # the budget ran out right after the last yield: that actor was
            # requeued although nothing else was due
            if "budget" in str(exc) and self.last_yield is not None:
                self.decisions.remove(self.last_yield)
            raise


def deciding_actor(sched, events, trace, name, ops):
    """`program_actor` that asks `in_place_until()` before each yield whether
    it will be resumed in place and checks, on resumption, whether `_run`
    resumed it in place."""
    trace.append((sched.now, name))
    children = 0
    for op, arg in ops:
        if op == "fire":
            events[arg].fire(name)
            continue
        if op == "spawn":
            child = f"{name}.{children}"
            children += 1
            sched.spawn(deciding_actor(sched, events, trace, child, arg), child)
            continue
        at = _resume_at(sched, op, arg, events)
        record = None
        if at is not None:
            until = sched.in_place_until()
            record = [until is not None and at < until, None]
            sched.decisions.append(record)
            sched.requeued.discard(name)
        sched.last_yield = record
        yield arg if op == "sleep" else events[arg]
        sched.last_yield = None
        if record is not None:
            record[1] = name not in sched.requeued
        trace.append((sched.now, name))


def test_in_place_predicate_matches_run_at_every_yield():
    decisions = []
    for seed in range(400):
        sched = DecisionScheduler(seed)
        got = run_scenario(sched, seed, actor=deciding_actor)
        assert got == run_scenario(HeapScheduler(), seed), f"seed {seed}"
        for predicted, in_place in sched.decisions:
            if in_place is not None:          # None: never resumed
                assert predicted == in_place, f"seed {seed}"
                decisions.append(in_place)
    assert decisions.count(True) > 500 and decisions.count(False) > 500


def moving_actor(sched, events, trace, name, ops):
    """`program_actor` that, where `_run` would resume it in place after a
    sleep (its resume time is before `in_place_until()`), moves the clock
    itself and goes on in the same step."""
    trace.append((sched.now, name))
    children = 0
    for op, arg in ops:
        if op == "fire":
            events[arg].fire(name)
            continue
        if op == "spawn":
            child = f"{name}.{children}"
            children += 1
            sched.spawn(moving_actor(sched, events, trace, child, arg), child)
            continue
        at = _resume_at(sched, op, arg, events)
        until = sched.in_place_until()
        if op == "sleep" and until is not None and at < until:
            sched.moved += 1
            sched.now = at
        else:
            yield arg if op == "sleep" else events[arg]
        trace.append((sched.now, name))


def test_clock_moved_inside_a_step_gives_the_yield_trace():
    moved = 0
    for seed in range(400):
        sched = Scheduler(seed)
        sched.moved = 0
        trace, outcomes, steps, now = run_scenario(
            sched, seed, actor=moving_actor, budgets=False)
        want_trace, want_outcomes, want_steps, want_now = run_scenario(
            Scheduler(seed), seed, budgets=False)
        assert (trace, now) == (want_trace, want_now), f"seed {seed}"
        # the same outcomes, each having run fewer resumptions
        assert [o[:3] for o in outcomes] == [o[:3] for o in want_outcomes]
        assert steps == want_steps - sched.moved
        moved += sched.moved
    assert moved > 500


# ---- a parked actor's body run in the step that would wake it ----------------

class _Desk:
    """A worker's job queue, the event it is parked on (None while it
    works), and the body it goes on with after `run_in_place` handed it
    over."""

    def __init__(self):
        self.jobs = collections.deque()
        self.wake = None
        self.adopted = None
        self.actor = None


def job_body(sched, events, trace, ops, done):
    """The worker's work on one job: `program_actor`'s ops, then `done`."""
    yield from program_actor(sched, events, trace, "w", ops)
    done.fire()


def desk_worker(sched, events, trace, desk):
    wake = sched.event()
    while True:
        if desk.jobs:
            yield from job_body(sched, events, trace, *desk.jobs.popleft())
            continue
        wake.fired = False
        desk.wake = wake
        yield wake
        if desk.adopted is not None:
            body, desk.adopted = desk.adopted, None
            yield from body


def job_client(sched, events, trace, name, ops, desk, outcomes):
    """`program_actor` with one more op, `("job", ops)`: hand the worker a
    job and wait until it is done. With `outcomes`, a list, a job for a
    parked worker goes through `run_in_place`, whose result is appended to
    it; without, every job is queued and its worker woken."""
    trace.append((sched.now, name))
    children = 0
    for op, arg in ops:
        if op == "fire":
            events[arg].fire(name)
            continue
        if op == "spawn":
            child = f"{name}.{children}"
            children += 1
            sched.spawn(program_actor(sched, events, trace, child, arg), child)
            continue
        if op == "job":
            done = sched.event()
            started = None
            if outcomes is not None and desk.wake is not None:
                body = job_body(sched, events, trace, arg, done)
                started = sched.run_in_place(body, desk.actor, desk.wake)
                outcomes.append(started)
                if started is False:
                    desk.wake, desk.adopted = None, body
            if started is None:
                desk.jobs.append((arg, done))
                if desk.wake is not None:
                    wake, desk.wake = desk.wake, None
                    wake.fire()
            yield done
        else:
            yield arg if op == "sleep" else events[arg]
        trace.append((sched.now, name))


def run_job_scenario(sched, seed, outcomes=None):
    """Clients that hand jobs (random programs) to one worker, as
    `job_client` does; returns the trace, each run's outcome and the
    clock."""
    rng = random.Random(seed)
    n_events = rng.randrange(2, 7)
    roots = []
    for _ in range(rng.randrange(1, 6)):
        ops = random_program(rng, n_events)
        for _ in range(rng.randrange(1, 4)):
            ops.insert(rng.randrange(len(ops) + 1),
                       ("job", random_program(rng, n_events, depth=1)))
        roots.append(ops)
    prefired = [rng.random() < 0.25 for _ in range(n_events)]
    target = rng.randrange(n_events)

    trace, results = [], []
    events = [sched.event() for _ in range(n_events)]
    for ev, fired in zip(events, prefired):
        if fired:
            ev.fire("pre")
    desk = _Desk()
    desk.actor = sched.spawn(desk_worker(sched, events, trace, desk), "w")
    for i, ops in enumerate(roots):
        sched.spawn(job_client(sched, events, trace, f"c{i}", ops, desk,
                               outcomes), f"c{i}")
    for run in (lambda: sched.pump(events[target]), sched.run_until_idle):
        try:
            results.append(("ok", run(), sched.now))
        except SchedulerHang as exc:
            results.append(("hang", str(exc), sched.now))
    return trace, results, sched.now


def test_a_body_run_in_place_matches_the_heap_reference():
    seen = collections.Counter()
    saved = 0
    for seed in range(600):
        outcomes = []
        sched = Scheduler(seed)
        got = run_job_scenario(sched, seed, outcomes)
        want = run_job_scenario(HeapScheduler(), seed)
        assert got == want, f"seed {seed}"
        queued = Scheduler(seed)
        assert run_job_scenario(queued, seed) == want, f"seed {seed}"
        # only the resumptions that ran are counted
        assert sched.events_processed <= queued.events_processed
        saved += queued.events_processed - sched.events_processed
        seen.update(outcomes)
    # finished in place, handed to the worker, not started
    assert min(seen[True], seen[False], seen[None]) > 50, seen
    assert saved > seen[True]


def test_run_in_place_starts_nothing_while_an_entry_is_due_now():
    sched = Scheduler(0)
    wake = sched.event()
    seen = []

    def worker():
        yield wake

    def body():
        seen.append("body")
        yield 1

    def client(tie):
        yield 5
        if tie:
            seen.append(sched.run_in_place(body(), parked, wake))

    parked = sched.spawn(worker(), "worker")
    sched.spawn(client(True), "a")
    sched.spawn(client(False), "b")           # due at 5 as well
    sched.run_until_idle()
    assert seen == [None] and wake._waiters == [parked]


def test_pump_target_is_cleared_when_a_pump_fails():
    sched = Scheduler(0)
    assert sched._target is None and sched.in_place_until() is None
    seen = []

    def watcher():
        seen.append(sched.in_place_until())
        yield 5

    sched.spawn(watcher(), "w")
    with pytest.raises(SchedulerHang):
        sched.pump(sched.event())
    assert seen == [math.inf] and sched._target is None

    def spinner():
        while True:
            yield 1

    sched.spawn(spinner(), "spin")
    with pytest.raises(SchedulerHang):
        sched.pump(sched.event(), max_events=10)
    assert sched._target is None and sched.in_place_until() is None

    def boom():
        yield 1
        raise ValueError("nope")

    with pytest.raises(ActorFailed):
        sched.join(sched.spawn(boom(), "boom"))
    assert sched._target is None and sched.in_place_until() is None
