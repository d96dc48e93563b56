"""``ServiceHold`` is its generator definition, event for event.

An OSD request (``ClusterObjectStore._service``) is one ``ServiceHold``
object instead of a generator that ``yield from``-s ``Resource.use`` and
then ``BandwidthPipe.transfer``. The object is only right if nobody can
tell the two apart: the same events in the same order, the same kernel
counts, the same spans and the same resource state after every event,
whether a process runs it as its body or a generator ``yield from``-s it,
on the production scheduler and on the heap-only oracle.
"""

import itertools

import pytest

from repro.obs import Observability
from repro.sim import BandwidthPipe, Interrupt, Resource, Simulator
from repro.sim.resources import ServiceHold
from repro.sim.stats import kernel_counters

from .hold_census import hold_census
from .reference_kernel import ReferenceSimulator


def _definition(queue, hold_time, pipe, nbytes):
    yield from queue.use(hold_time)
    if nbytes > 0:
        yield from pipe.transfer(nbytes)


#: Where the strike lands, by queue state: with the queue full the hold
#: waits 0 -> 1 ms, holds the slot 1 -> 3 ms, then the pipe 3 -> 4 ms;
#: with it free, slot 0 -> 2 ms and pipe 2 -> 3 ms.
_STRIKES = (None, 0.5e-3, 2.5e-3, 3.5e-3)


def _scene(make_sim, body, full, nbytes, traced, spawned, strike, how):
    sim = make_sim()
    tracer = (Observability.of(sim).enable_tracing(pid_name="t")
              if traced else None)
    queue = Resource(sim, capacity=1, name="osd0.q")
    pipe = BandwidthPipe(sim, 1e6, name="osd0.media")   # 1000 B = 1 ms
    log = []

    def state():
        return (sim.now, queue.in_use, queue.queue_length, pipe._res.in_use,
                pipe.queue_length, pipe.bytes_moved)

    def holder():
        yield from queue.use(1e-3)

    def victim():
        try:
            hold = body(queue, 2e-3, pipe, nbytes)
            if spawned:
                procs["hold"] = sim.process(hold, name="put-replica0")
                yield procs["hold"]
            else:
                yield from hold
            log.append(("done",) + state())
        except Interrupt:
            log.append(("interrupted",) + state())

    def waiter():
        # Queues behind the victim's slot hold; a slot handed back early is
        # granted to it at that instant.
        yield sim.timeout(0.5e-3)
        yield from queue.use(1e-3)
        log.append(("waiter",) + state())

    def streamer():
        # Meets the victim on the pipe.
        yield sim.timeout(2.5e-3)
        yield from pipe.transfer(500)
        log.append(("streamer",) + state())

    def striker():
        yield sim.timeout(strike)
        target = procs["hold" if spawned else "victim"]
        if how == "interrupt":
            target.interrupt("crash")
        else:
            # What finalising a suspended generator does: ``close``.
            target._gen.close()
        log.append(("struck",) + state())

    procs = {}
    if full:
        sim.process(holder())
    sim.process(waiter())
    sim.process(streamer())
    if strike is not None:
        sim.process(striker())
    # Last: on a free queue it finds nothing else due and its slot hold
    # may start without a grant (and the waiter queues behind it).
    procs["victim"] = sim.process(victim())
    while sim.peek() != float("inf"):
        sim.step()
        log.append(state())
    assert (queue.in_use, queue.queue_length) == (0, 0)
    assert (pipe._res.in_use, pipe.queue_length) == (0, 0)
    spans = ([(s.name, s.cat, s.start, s.end, s.tid) for s in tracer.spans]
             if traced else None)
    return log, spans, kernel_counters(sim)


_CASES = [c for c in itertools.product(
    (Simulator, ReferenceSimulator), (False, True), (0, 1000),
    (False, True), (False, True), _STRIKES, ("interrupt", "close"))
    if c[5] is not None or c[6] == "interrupt"]


def test_the_hold_object_is_its_generator_definition(monkeypatch):
    """Over free and full queues, zero-byte and data holds, traced and
    untraced, spawned and ``yield from``-ed, struck (interrupt or close)
    while queued, holding the slot or moving the bytes: every run's
    per-event trace, spans and kernel counters are the definition's. Untraced, the object takes the fused arms (the
    grant-less one included) and never runs the textbook generator."""
    textbook = Resource._use_textbook
    textbook_runs = []

    def counting_textbook(res, *args):
        textbook_runs.append(res.name)
        return textbook(res, *args)

    monkeypatch.setattr(Resource, "_use_textbook", counting_textbook)
    grantless = 0
    for case in _CASES:
        expected = _scene(case[0], _definition, *case[1:])
        del textbook_runs[:]
        with hold_census() as seen:
            got = _scene(case[0], ServiceHold, *case[1:])
        assert got == expected, case
        traced = case[3]
        # Traced runs record the textbook holds' spans; untraced ones run
        # no textbook hold at all (every hold here is positive).
        assert (got[1] is not None and got[1] != []) == traced, case
        assert bool(textbook_runs) == traced, case
        assert seen["oracle_grantless"] == 0
        grantless += seen["grantless"]
    assert grantless > 0


def test_an_exhausted_hold_behaves_like_a_finished_generator():
    sim = Simulator()
    queue = Resource(sim, capacity=1, name="osd0.q")
    pipe = BandwidthPipe(sim, 1e6, name="osd0.media")
    hold = ServiceHold(queue, 1e-3, pipe, 0)
    proc = sim.process(hold)
    sim.run()
    assert proc.ok and proc.value is None
    with pytest.raises(StopIteration):
        hold.send(None)
    hold.close()
    with pytest.raises(KeyError):
        hold.throw(KeyError("x"))
    assert (queue.in_use, pipe._res.in_use) == (0, 0)
