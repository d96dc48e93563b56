"""Tests for Resource/Mutex/Store/BandwidthPipe queueing semantics."""

import gc

import pytest

from repro.sim import (BandwidthPipe, Interrupt, Mutex, Resource,
                       SimulationError, Simulator, Store, serve)
from repro.sim.stats import kernel_counters

from .hold_census import hold_census
from .reference_kernel import ReferenceSimulator, textbook_use


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    sim.run()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.in_use == 2 and res.queue_length == 1


def test_resource_fifo_handoff():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, tag, hold):
        yield from res.use(hold)
        order.append((tag, sim.now))

    sim.process(worker(sim, res, "a", 2.0))
    sim.process(worker(sim, res, "b", 1.0))
    sim.process(worker(sim, res, "c", 1.0))
    sim.run()
    assert order == [("a", 2.0), ("b", 3.0), ("c", 4.0)]


def test_resource_release_ungranted_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    queued = res.request()
    sim.run()
    res.release(queued)  # cancel while still queued
    assert res.queue_length == 0
    res.release(held)
    assert res.in_use == 0


def test_resource_release_unknown_request_errors():
    sim = Simulator()
    a = Resource(sim, capacity=1)
    b = Resource(sim, capacity=1)
    req = a.request()
    sim.run()
    req.granted = False  # simulate misuse
    with pytest.raises(SimulationError):
        b.release(req)


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_serve_models_queueing_delay():
    """Two clients on a capacity-1 server: second waits for the first."""
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    finish = {}

    def client(sim, cpu, tag):
        yield from serve(cpu, 1.0)
        finish[tag] = sim.now

    sim.process(client(sim, cpu, "x"))
    sim.process(client(sim, cpu, "y"))
    sim.run()
    assert finish == {"x": 1.0, "y": 2.0}


def test_mutex_is_exclusive():
    sim = Simulator()
    m = Mutex(sim)
    assert m.capacity == 1


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim, store):
        yield sim.timeout(3)
        store.put("msg")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [("msg", 3)]


def test_store_buffers_items_fifo():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)

    def consumer(sim, store):
        a = yield store.get()
        b = yield store.get()
        return (a, b)

    assert sim.run_process(consumer(sim, store)) == (1, 2)


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("x")
    assert len(store) == 1
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_bandwidth_pipe_transfer_time():
    sim = Simulator()
    pipe = BandwidthPipe(sim, bytes_per_sec=100)

    def mover(sim, pipe):
        yield from pipe.transfer(250)

    sim.run_process(mover(sim, pipe))
    assert sim.now == pytest.approx(2.5)
    assert pipe.bytes_moved == 250


def test_bandwidth_pipe_saturates_under_contention():
    """Aggregate throughput caps at the pipe rate: two 100-byte transfers
    through a 100 B/s pipe take 2 s total."""
    sim = Simulator()
    pipe = BandwidthPipe(sim, bytes_per_sec=100)
    done = []

    def mover(sim, pipe, tag):
        yield from pipe.transfer(100)
        done.append((tag, sim.now))

    sim.process(mover(sim, pipe, "a"))
    sim.process(mover(sim, pipe, "b"))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_bandwidth_pipe_lanes_share_rate():
    """With 2 lanes, two concurrent transfers each run at half rate and
    finish together; aggregate rate is unchanged."""
    sim = Simulator()
    pipe = BandwidthPipe(sim, bytes_per_sec=100, lanes=2)
    done = []

    def mover(sim, pipe, tag):
        yield from pipe.transfer(100)
        done.append((tag, sim.now))

    sim.process(mover(sim, pipe, "a"))
    sim.process(mover(sim, pipe, "b"))
    sim.run()
    assert done[0][1] == pytest.approx(2.0)
    assert done[1][1] == pytest.approx(2.0)


def test_bandwidth_pipe_rejects_bad_args():
    sim = Simulator()
    with pytest.raises(SimulationError):
        BandwidthPipe(sim, bytes_per_sec=0)
    pipe = BandwidthPipe(sim, bytes_per_sec=10)

    def bad(sim, pipe):
        yield from pipe.transfer(-1)

    with pytest.raises(SimulationError):
        sim.run_process(bad(sim, pipe))


def test_zero_byte_transfer_is_instant():
    sim = Simulator()
    pipe = BandwidthPipe(sim, bytes_per_sec=10)

    def mover(sim, pipe):
        yield from pipe.transfer(0)

    sim.run_process(mover(sim, pipe))
    assert sim.now == 0.0


def test_release_of_queued_request_is_lazy_cancel():
    """Releasing a never-granted request cancels it: queue_length drops
    immediately and the grant loop skips it when capacity frees up."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    queued_a = res.request()
    queued_b = res.request()
    assert res.queue_length == 2
    res.release(queued_a)          # cancel while still queued
    assert res.queue_length == 1
    res.release(holder)            # grant must skip the cancelled entry
    sim.run()
    assert not queued_a.triggered
    assert queued_b.triggered and queued_b.granted
    assert res.in_use == 1


def test_double_cancel_of_queued_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    queued = res.request()
    res.release(queued)
    with pytest.raises(SimulationError):
        res.release(queued)


def test_cancelled_queue_head_popped_eagerly():
    """Cancelling the request at the head of the FIFO pops it (and any
    cancelled run behind it) right away, so the queue never accumulates a
    dead prefix."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    q1, q2, q3 = res.request(), res.request(), res.request()
    res.release(q2)                # interior: stays parked, flagged
    assert len(res._queue) == 3 and res.queue_length == 2
    res.release(q1)                # head: pops itself AND the dead q2 run
    assert len(res._queue) == 1 and res.queue_length == 1
    assert res._queue[0] is q3


# -- one resume per hold: the fused ``use`` against its textbook definition ---

BODIES = pytest.mark.parametrize("body", ["fused", "textbook"])


def _via_use(res, tag, hold):
    return res.use(hold)


def _via_acquire(res, tag, hold):
    req = yield from res.acquire()
    try:
        yield res.sim.timeout(hold)
    finally:
        res.release(req)


#: ``_interrupt_scenario`` without the holder: the victim arrives alone at
#: an idle instant — its fused hold is grant-less — and the waiter queues
#: behind it.
_ALONE = {"victim": 1.0, "waiter": 1.2}


def _interrupt_scenario(body, interrupt_at, make_sim=Simulator,
                        via=_via_use, starts=None):
    """A capacity-1 resource with a holder (0 → 1.0), a victim queued behind
    it asking for a 5.0 hold, and a waiter queued behind the victim asking
    for 1.0. The victim is interrupted at ``interrupt_at``; returns what
    everybody saw, when the last event fired, and the kernel's counters.
    ``starts`` replaces the cast: who takes part, and when each arrives."""
    with textbook_use(body == "textbook"):
        sim = make_sim()
        res = Resource(sim, capacity=1, name="r.cpu")
        log = []

        def state():
            return (sim.now, res.in_use, res.queue_length)

        def interrupter():
            # Spawned first, so at ``interrupt_at`` its timeout fires before
            # any hold timeout armed later for the same instant.
            yield sim.timeout(interrupt_at)
            victim.interrupt("crash")

        def user(tag, hold, start):
            try:
                if start:
                    yield sim.timeout(start)
                yield from via(res, tag, hold)
                log.append((tag, "done") + state())
            except Interrupt:
                log.append((tag, "interrupted") + state())

        sim.process(interrupter())
        cast = {"holder": 0.0, "victim": 0.0, "waiter": 0.0} \
            if starts is None else starts
        procs = {tag: sim.process(user(tag, 5.0 if tag == "victim" else 1.0,
                                       start))
                 for tag, start in cast.items()}
        victim = procs["victim"]
        sim.run()
        assert (res.in_use, res.queue_length) == (0, 0)
        return log, sim.now, kernel_counters(sim)


@BODIES
def test_use_interrupted_while_queued_cancels_the_request(body):
    log, end, _ = _interrupt_scenario(body, interrupt_at=0.5)
    assert log == [
        # Cancelled on the spot: the holder still holds, only the waiter queues.
        ("victim", "interrupted", 0.5, 1, 1),
        ("holder", "done", 1.0, 1, 0),      # its release granted the waiter
        ("waiter", "done", 2.0, 0, 0),
    ]
    assert end == 2.0                       # the victim's hold never started


@BODIES
def test_use_interrupted_between_grant_and_its_processing_returns_the_slot(body):
    """At 1.0 the interrupt is queued, then the holder's release grants the
    victim (its grant event joins the ready deque behind the interrupt):
    the victim owns a slot its process never learns about."""
    log, end, _ = _interrupt_scenario(body, interrupt_at=1.0)
    assert log == [
        ("holder", "done", 1.0, 1, 1),      # victim granted, waiter queued
        # The slot went back exactly once and straight on to the waiter.
        ("victim", "interrupted", 1.0, 1, 0),
        ("waiter", "done", 2.0, 0, 0),
    ]
    # The victim's grant event still fires (it was queued), but it must not
    # start a 5.0 hold nobody waits for.
    assert end == 2.0


@BODIES
def test_use_interrupted_during_the_hold_releases_once(body):
    log, end, _ = _interrupt_scenario(body, interrupt_at=1.5)
    assert log == [
        ("holder", "done", 1.0, 1, 1),
        ("victim", "interrupted", 1.5, 1, 0),   # waiter granted at 1.5
        ("waiter", "done", 2.5, 0, 0),
    ]
    # The abandoned hold timeout stays on the heap until it is due, firing
    # into nobody; had it been recycled early, the waiter's hold would have
    # reused it while armed.
    assert end == 6.0


@BODIES
def test_use_interrupted_during_a_grantless_hold_releases_once(body):
    """Window 3 on the other arm: the victim took a free slot at an idle
    instant, so its fused hold has no request to release — the slot still
    goes back once, straight on to the waiter, and the unfired timeout is
    left on the heap (end == 6.0), not recycled."""
    with hold_census() as seen:
        log, end, _ = _interrupt_scenario(body, 1.5, starts=_ALONE)
    assert log == [
        ("victim", "interrupted", 1.5, 1, 0),   # waiter granted at 1.5
        ("waiter", "done", 2.5, 0, 0),
    ]
    assert end == 6.0
    # The victim's hold and nobody else's: the waiter had to queue.
    assert seen["grantless"] == (1 if body == "fused" else 0)
    assert seen["requests"] == (1 if body == "fused" else 2)


@pytest.mark.parametrize("interrupt_at", [0.5, 1.0, 1.5])
def test_fused_use_runs_the_textbook_schedule_under_interrupts(interrupt_at):
    """Event for event: same log, same loop/inline/heap counts, on the
    production scheduler; and on the heap-only oracle nothing is inlined.
    Both arms of the fused body: granted by a release, and grant-less."""
    for starts in (None, _ALONE):
        fused = _interrupt_scenario("fused", interrupt_at, starts=starts)
        assert fused == _interrupt_scenario("textbook", interrupt_at,
                                            starts=starts)
        oracle = _interrupt_scenario("fused", interrupt_at,
                                     ReferenceSimulator, starts=starts)
        assert oracle[:2] == fused[:2]
        assert oracle[2]["inline_events"] == 0


#: The two windows in which a process waiting for a slot can be interrupted,
#: and what everybody must see: still queued behind the holder (0.5), and
#: granted by the holder's release but not yet resumed (1.0). Either way the
#: victim never holds the slot and the waiter behind it is served.
_WAIT_WINDOWS = pytest.mark.parametrize("interrupt_at, log", [
    (0.5, [("victim", "interrupted", 0.5, 1, 1),
           ("holder", "done", 1.0, 1, 0),
           ("waiter", "done", 2.0, 0, 0)]),
    (1.0, [("holder", "done", 1.0, 1, 1),
           ("victim", "interrupted", 1.0, 1, 0),
           ("waiter", "done", 2.0, 0, 0)]),
])


@_WAIT_WINDOWS
def test_acquire_interrupted_while_waiting_never_holds_the_mutex(
        interrupt_at, log):
    """``acquire`` hands the request to its caller only by returning, so an
    interrupt before that must cancel it or give the slot back itself — the
    caller has no ``finally`` yet. (The hand-rolled copies this replaced
    left the mutex held by the dead waiter.) The waiter's own ``acquire``
    is granted, and the scenario ends with ``in_use == queue_length == 0``."""
    seen, end, _ = _interrupt_scenario("textbook", interrupt_at,
                                       via=_via_acquire)
    assert seen == log
    assert end == 2.0


def test_acquire_interrupted_while_holding_is_the_callers_release():
    seen, end, _ = _interrupt_scenario("textbook", 1.5, via=_via_acquire)
    assert seen == [("holder", "done", 1.0, 1, 1),
                    ("victim", "interrupted", 1.5, 1, 0),
                    ("waiter", "done", 2.5, 0, 0)]


def test_abandoned_hold_timeout_is_not_reused_while_armed():
    """A hold the caller was interrupted out of leaves its timer on the
    heap until it is due (10.0 here) — the grant re-armed as the timer, or
    the grant-less arm's timeout. Recycled before then, it would carry a
    later hold — and end it at 10.0."""
    # Arriving with the interrupter's kick-off still queued, the victim's
    # first hold goes through a grant event; arriving alone, it is grant-less
    # (as the last two always are; the one after the interrupt shares its
    # instant with the interrupter's completion event). Either way the
    # abandoned timer is not recycled: the next hold on that arm
    # constructs its own.
    for arrival, census in ((0.0, (2, 2, 2)), (0.1, (3, 1, 4))):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        ends = []

        def victim():
            try:
                if arrival:
                    yield sim.timeout(arrival)
                yield from res.use(10.0)
            except Interrupt:
                ends.append(("interrupted", sim.now))
            for hold in (1.0, 20.0, 1.0):
                yield from res.use(hold)
                ends.append((hold, sim.now))

        proc = sim.process(victim())

        def interrupter():
            yield sim.timeout(0.5)
            proc.interrupt()

        sim.process(interrupter())
        with hold_census() as seen:
            sim.run()
        assert ends == [("interrupted", 0.5), (1.0, 1.5), (20.0, 21.5),
                        (1.0, 22.5)]
        assert (seen["grantless"], seen["requests"],
                seen["timeouts"]) == census


# -- a queued hold's grant is its own timer -----------------------------------

def test_queued_holds_construct_no_timeout_and_recycle_every_request():
    """Holds queued on a capacity-1 resource: each grant, processed by the
    run loop, is re-armed as its hold's timer, so no ``Timeout`` is built,
    and every request goes back to the freelist — a second round of holds
    constructs none."""
    n = 8
    with hold_census() as seen:
        sim = Simulator()
        res = Resource(sim, capacity=1, name="r.cpu")
        done = []

        def user(k):
            yield from res.use(1.0)
            done.append((k, sim.now))

        for _ in range(2):
            for k in range(n):
                sim.process(user(k))
            sim.run()
    assert done == [(i % n, float(i + 1)) for i in range(2 * n)]
    assert (seen["grantless"], seen["timeouts"], seen["requests"]) == (0, 0, n)
    assert len(res._pool) == n and (res.in_use, res.queue_length) == (0, 0)


#: GC-tracked objects one parked ``use`` keeps alive: its process and the
#: process's callback list, the process's and ``use``'s generators, the
#: request, its callback list and the bound ``_resume`` in it (7) — plus a
#: share of the kick-off freelist. A timer armed beside the request while
#: it queues adds three more.
_TRACKED_PER_PARKED_HOLD = 7.3


def test_a_parked_hold_keeps_no_timer_alive():
    """1 000 holds queued behind a busy slot add no more GC-tracked objects
    per waiter than the request arm needs: no ``Timeout``, callback list or
    bound method waits beside each request for its grant."""
    sim = Simulator()
    res = Resource(sim, capacity=1, name="osd.q")

    def user():
        yield from res.use(1.0)

    sim.process(user())
    sim.run(until=0.5)                  # the slot is busy until 1.0
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for _ in range(1000):
            sim.process(user())
        sim.run(until=0.75)
        gc.collect()
        per_waiter = (len(gc.get_objects()) - before) / 1000
    finally:
        gc.enable()
    assert res.queue_length == 1000
    assert per_waiter <= _TRACKED_PER_PARKED_HOLD, per_waiter


def test_released_requests_are_freed_by_reference_counting():
    """A grant carries no reference to its request, so a request its holder
    released and let go of is freed at once: after ``acquire``/``release``
    rounds, granted at once and queued, the cyclic collector finds
    nothing."""
    sim = Simulator()
    lock = Mutex(sim, name="dir.lock")

    def user():
        for _ in range(50):
            req = yield from lock.acquire()
            try:
                yield sim.timeout(1e-3)
            finally:
                lock.release(req)

    for _ in range(3):
        sim.process(user())
    gc.collect()
    gc.disable()
    try:
        sim.run()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert (lock.in_use, lock.queue_length) == (0, 0)


@BODIES
def test_interrupt_overtaken_by_a_queued_grant_is_stale(body):
    """``Process.interrupt`` is delivered by an event of its own and dropped
    if its target resumed in the meantime. A grant already waiting in the
    ready deque ahead of that event counts: the textbook body resumes on
    it and moves on to the hold, so the fused body — which is not resumed —
    must treat the interrupt as stale all the same."""
    with textbook_use(body == "textbook"):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def victim():
            try:
                # Granted at once, but the striker's kick-off is ahead of
                # the grant event in the ready deque: no inline resume.
                yield from res.use(1.0)
                log.append(("done", sim.now))
            except Interrupt:
                log.append(("interrupted", sim.now))

        def striker():
            proc.interrupt()        # its wake-up queues *behind* the grant
            yield sim.timeout(0)

        proc = sim.process(victim())
        sim.process(striker())
        sim.run()
        assert log == [("done", 1.0)]
        assert res.in_use == 0


def test_use_samples_its_request_and_release():
    """A sampled resource marks itself dirty when ``use`` requests and when
    it releases — whichever body runs, and (``arrival`` 0.25: the user is
    alone at that instant) when a grant-less hold takes the slot and gives
    it back."""
    for body, arrival, grantless in (("fused", 0.0, 0), ("textbook", 0.0, 0),
                                     ("fused", 0.25, 1)):
        with textbook_use(body == "textbook"), hold_census() as census:
            sim = Simulator()
            res = Resource(sim, capacity=1)
            res._watch = dirty = set()
            seen = []

            def user():
                if arrival:
                    yield sim.timeout(arrival)
                yield from res.use(1.0)

            def watcher():
                if arrival:
                    seen.append(bool(dirty))    # t=0: nothing happened yet
                    yield sim.timeout(arrival + 0.05)
                seen.append(bool(dirty))        # after the request / take
                dirty.clear()
                yield sim.timeout(0.5)
                seen.append(bool(dirty))        # mid-hold: nothing changed
                yield sim.timeout(1.0)
                seen.append(bool(dirty))        # after the release
                assert (res.in_use, res.queue_length) == (0, 0)

            sim.process(user())
            sim.process(watcher())
            sim.run()
            assert seen[-3:] == [True, False, True], (body, arrival)
            assert seen[:-3] == ([False] if arrival else [])
            assert census["grantless"] == grantless


# -- the grant-less arm: taken only when nothing could observe the grant ------

def _alone(body, make_sim=Simulator, capacity=1, users=((1.0, 1.0),)):
    """``users`` — (arrival, hold) pairs — each ``use`` a fresh resource at
    instants when nothing else is queued; returns finish times, counters
    and the census."""
    with textbook_use(body == "textbook"), hold_census() as seen:
        sim = make_sim()
        res = Resource(sim, capacity=capacity, name="r.cpu")
        done = []

        def user(k, arrival, hold):
            yield sim.timeout(arrival)
            yield from res.use(hold)
            done.append((k, sim.now, res.in_use, res.queue_length))

        for k, (arrival, hold) in enumerate(users):
            sim.process(user(k, arrival, hold))
        sim.run()
        assert (res.in_use, res.queue_length) == (0, 0)
        return done, kernel_counters(sim), dict(seen)


def test_uncontended_use_on_an_idle_simulator_constructs_no_request():
    # Two timeouts each: the user's arrival, and the end of the hold.
    done, counters, seen = _alone("fused")
    assert done == [(0, 2.0, 0, 0)]
    assert seen == {"grantless": 1, "oracle_grantless": 0, "requests": 0,
                    "timeouts": 2}
    # The grant that was not created is counted as the inline event the
    # textbook body consumes: same loop / inline / heap numbers.
    textbook = _alone("textbook")
    assert (done, counters) == textbook[:2]
    assert textbook[2] == {"grantless": 0, "oracle_grantless": 0,
                           "requests": 1, "timeouts": 2}
    assert counters["inline_events"] == 1
    # The oracle walks request -> grant -> timer and inlines nothing; the
    # timer is the grant itself.
    oracle = _alone("fused", ReferenceSimulator)
    assert oracle[0] == done and oracle[1]["inline_events"] == 0
    assert oracle[2] == dict(textbook[2], timeouts=1)


def test_grantless_holds_on_a_multi_slot_resource_queue_the_overflow():
    """Capacity 2: two holders arrive alone and take a slot each without a
    grant; the third finds the resource full, queues, and is granted by the
    first give-back — at that instant."""
    users = ((1.0, 2.0), (1.5, 2.0), (2.0, 0.5))
    done, counters, seen = _alone("fused", capacity=2, users=users)
    assert done == [(0, 3.0, 2, 0), (1, 3.5, 1, 0), (2, 3.5, 0, 0)]
    assert (seen["grantless"], seen["requests"]) == (2, 1)
    assert (done, counters) == _alone("textbook", capacity=2, users=users)[:2]
    assert done == _alone("fused", ReferenceSimulator, 2, users)[0]


def _rivalry(body, observer, make_sim=Simulator):
    """At 1.0 a user starts a 1.0 hold on a free slot while a rival is, in
    one way or another, ahead of the grant in (time, seq) order; the rival
    then sleeps 1.0 as well. Whoever armed their timeout first wakes first
    at 2.0 — and by the textbook schedule that is the rival."""
    with textbook_use(body == "textbook"), hold_census() as seen:
        sim = make_sim()
        res = Resource(sim, capacity=1, name="r.cpu")
        order = []

        def rival(wake=None):
            if wake is not None:
                yield wake
            yield sim.timeout(1.0)
            order.append(("rival", sim.now))

        def user(wake):
            yield wake
            if observer == "queued-at-now":
                sim.process(rival())        # its kick-off is in the deque
            yield from res.use(1.0)
            order.append(("user", sim.now))

        if observer == "callback-pending":
            # One event, two waiters: the rival's wake-up is the callback
            # still pending while the user runs.
            gong = sim.event()
            sim.process(user(gong))
            sim.process(rival(gong))

            def ringer():
                yield sim.timeout(1.0)
                gong.succeed()
                yield sim.timeout(5.0)      # keeps its own end out of 1.0

            sim.process(ringer())
        else:
            sim.process(user(sim.timeout(1.0)))
            if observer == "heap-due-now":
                # Armed after the user's: still on the heap, due at 1.0,
                # when the user runs.
                sim.process(rival(sim.timeout(1.0)))
        sim.run()
        return order, kernel_counters(sim), seen["grantless"]


@pytest.mark.parametrize("observer", ["queued-at-now", "callback-pending",
                                      "heap-due-now"])
def test_grantless_arm_not_taken_when_the_grant_could_be_observed(observer):
    """One guard of the scheduler's rule each. Dropping it arms the user's
    timeout ahead of the rival's and flips the order at 2.0."""
    order, counters, grantless = _rivalry("fused", observer)
    assert order == [("rival", 2.0), ("user", 2.0)]
    assert grantless == 0
    assert (order, counters, 0) == _rivalry("textbook", observer)
    assert order == _rivalry("fused", observer, ReferenceSimulator)[0]


@pytest.mark.parametrize("users, grantless", [(1, 2), (2, 0)])
def test_a_hold_absorbed_by_rounding_ends_in_the_ready_deque(users,
                                                             grantless):
    """At ``now`` = 1e9 a 1e-9 hold rounds away: its end is due now, so it
    joins the ready deque as the textbook body's timeout does — scheduled
    by the grant-less arm with a recycled timeout (one user), or by the
    re-armed grant (two users: neither grant can be consumed inline) —
    at the same place, with the same heap pushes. One count moves, and no
    event: the re-armed grant, due now and next, is popped by the run loop
    where the textbook body consumes its timeout inline."""
    def run(body):
        with textbook_use(body == "textbook"), hold_census() as seen:
            sim = Simulator()
            res = Resource(sim, capacity=1, name="r.cpu")
            order = []

            def user(k):
                yield from res.use(1.0)         # fills the timeout freelist
                yield sim.timeout(1e9 - sim.now)
                yield from res.use(1e-9)
                order.append((k, sim.now))

            for k in range(users):
                sim.process(user(k))
            sim.run()
            return order, kernel_counters(sim), seen["grantless"]

    (order, counters, taken), textbook = run("fused"), run("textbook")
    assert order == textbook[0] == [(k, 1e9) for k in range(users)]
    assert taken == grantless
    assert counters["heap_pushes"] == textbook[1]["heap_pushes"]
    moved = {"loop_events": 1, "inline_events": -1} if users == 2 else {}
    assert counters == {k: v + moved.get(k, 0)
                        for k, v in textbook[1].items()}


def test_grantless_arm_not_taken_on_a_full_resource():
    users = ((0.5, 2.0), (1.0, 1.0))
    done, counters, seen = _alone("fused", users=users)
    assert done == [(0, 2.5, 1, 0), (1, 3.5, 0, 0)]     # not (1, 2.0, ...)
    assert (seen["grantless"], seen["requests"]) == (1, 1)
    assert (done, counters) == _alone("textbook", users=users)[:2]


def test_grantless_arm_not_taken_for_a_traced_op_or_a_zero_hold():
    """``use`` picks the textbook body for both: a traced hold gets its
    span, and a zero hold is the grant alone — one inline event, no timer."""
    from repro.obs import Observability

    with hold_census() as seen:
        sim = Simulator()
        tracer = Observability.of(sim).enable_tracing(pid_name="t")
        res = Resource(sim, capacity=1, name="r.cpu")

        def traced():
            # Full tracing: a top-level process starts with the tracer.
            assert sim._active_proc.tracer is tracer
            yield sim.timeout(1.0)
            yield from res.use(1.0)

        sim.run_process(traced())
        assert [(s.name, s.cat) for s in tracer.spans] == [("r.cpu", "cpu")]
        assert seen == {"grantless": 0, "oracle_grantless": 0, "requests": 1,
                        "timeouts": 2}

    done, counters, seen = _alone("fused", users=((1.0, 0.0),))
    assert done == [(0, 1.0, 0, 0)]
    assert seen["grantless"] == 0 and seen["requests"] == 1
    assert counters == _alone("textbook", users=((1.0, 0.0),))[1]
    assert (counters["inline_events"], counters["heap_pushes"]) == (1, 1)
