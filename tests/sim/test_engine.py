"""Unit tests for the DES kernel: events, processes, time ordering."""

import pytest

from repro.sim import (
    Interrupt,
    SimulationError,
    Simulator,
)

from .reference_kernel import ReferenceSimulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return "done"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "done"
    assert sim.now == 2.5


def test_timeout_value_delivered():
    sim = Simulator()

    def proc(sim):
        got = yield sim.timeout(1.0, value="payload")
        return got

    assert sim.run_process(proc(sim)) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_zero_timeout_runs_in_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(0)
        order.append(tag)

    for tag in "abc":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_a_delay_absorbed_by_rounding_is_due_now_in_fifo_order():
    """At ``now`` = 1e9 a 1e-9 timeout rounds to ``now``: it is due now and
    waits its turn behind a zero timeout scheduled before it, instead of
    taking the heap, which is drained first."""
    sim = Simulator()
    order = []

    def proc(tag, delay):
        yield sim.timeout(1e9)
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc("zero", 0.0))
    sim.process(proc("tiny", 1e-9))
    sim.run()
    assert order == ["zero", "tiny"] and sim.now == 1e9


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append((sim.now, tag))

    sim.process(proc(sim, 3.0, "late"))
    sim.process(proc(sim, 1.0, "early"))
    sim.process(proc(sim, 2.0, "mid"))
    sim.run()
    assert order == [(1.0, "early"), (2.0, "mid"), (3.0, "late")]


def test_process_is_awaitable_and_returns_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        return 42

    def parent(sim):
        result = yield sim.process(child(sim))
        return result + 1

    assert sim.run_process(parent(sim)) == 43
    assert sim.now == 1


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as e:
            return f"caught {e}"

    assert sim.run_process(parent(sim)) == "caught boom"


def test_uncaught_process_exception_raises_from_run_process():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        raise KeyError("k")

    with pytest.raises(KeyError):
        sim.run_process(proc(sim))


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    results = []

    def waiter(sim, ev):
        val = yield ev
        results.append(val)

    def firer(sim, ev):
        yield sim.timeout(5)
        ev.succeed("fired")

    sim.process(waiter(sim, ev))
    sim.process(firer(sim, ev))
    sim.run()
    assert results == ["fired"]
    assert sim.now == 5


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim, ev):
        try:
            yield ev
        except RuntimeError:
            return "failed"

    p = sim.process(waiter(sim, ev))
    ev.fail(RuntimeError("x"))
    sim.run()
    assert p.value == "failed"


def test_timeout_not_triggered_before_due():
    sim = Simulator()
    t = sim.timeout(10)
    assert not t.triggered
    sim.run(until=5)
    assert not t.triggered
    sim.run()
    assert t.triggered and t.ok


def test_all_of_waits_for_everything():
    sim = Simulator()

    def proc(sim):
        vals = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b"),
                                 sim.timeout(2, "c")])
        return vals

    assert sim.run_process(proc(sim)) == ["a", "b", "c"]
    assert sim.now == 3


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        vals = yield sim.all_of([])
        return vals

    assert sim.run_process(proc(sim)) == []
    assert sim.now == 0


def test_any_of_returns_first():
    sim = Simulator()

    def proc(sim):
        idx, val = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
        return idx, val

    assert sim.run_process(proc(sim)) == (1, "fast")
    assert sim.now == 1


def test_interrupt_wakes_waiting_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
            log.append("slept")
        except Interrupt as i:
            log.append(f"interrupted:{i.cause}@{sim.now}")
            return "int"

    def killer(sim, target):
        yield sim.timeout(2)
        target.interrupt("crash")

    p = sim.process(sleeper(sim))
    sim.process(killer(sim, p))
    sim.run()
    assert log == ["interrupted:crash@2.0"]
    assert p.value == "int"
    # The abandoned 100 s timeout still drains off the heap harmlessly.
    assert sim.now == 100


def test_stale_event_does_not_resume_interrupted_process():
    """After an interrupt, the originally awaited event firing later must not
    wake the process a second time."""
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(10)
            log.append("original-wake")
        except Interrupt:
            yield sim.timeout(50)  # now waiting on something else
            log.append("post-interrupt-wake")

    def killer(sim, target):
        yield sim.timeout(1)
        target.interrupt()

    p = sim.process(sleeper(sim))
    sim.process(killer(sim, p))
    sim.run()
    assert log == ["post-interrupt-wake"]
    assert sim.now == 51


# An interrupt is delivered by a wake-up event queued when it is requested.
# Whatever the process waits on when that event fires decides: the process
# must still wait on the event it waited on at the request, in the same
# wait (DESIGN §10). Both cases below are stale, so the process runs on, on
# the production scheduler and on the heap-only oracle alike.

@pytest.mark.parametrize("kind", [Simulator, ReferenceSimulator])
def test_an_interrupt_requested_before_the_first_step_is_stale(kind):
    """The wake-up queues behind the process's kick-off; its first step
    moves it on to a new wait before the delivery looks."""
    sim = kind()
    log = []

    def sleeper():
        log.append("started")
        try:
            yield sim.timeout(1)
            log.append("slept")
        except Interrupt:
            log.append("interrupted")

    proc = sim.process(sleeper())
    proc.interrupt("early")
    sim.run()
    assert log == ["started", "slept"] and proc.ok


@pytest.mark.parametrize("kind", [Simulator, ReferenceSimulator])
def test_an_interrupt_requested_after_the_awaited_event_triggered_is_stale(
        kind):
    """The awaited event triggered first at this instant: it resumes the
    process ahead of the wake-up, which then finds a new wait."""
    sim = kind()
    log = []
    gate = sim.event()

    def waiter():
        try:
            value = yield gate
            log.append((value, sim.now))
            yield sim.timeout(1)
            log.append("slept")
        except Interrupt:
            log.append("interrupted")

    def trigger():
        yield sim.timeout(1)
        gate.succeed("go")
        proc.interrupt("late")

    proc = sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert log == [("go", 1.0), "slept"] and proc.ok


def test_interrupt_on_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)
        return "ok"

    p = sim.process(quick(sim))
    sim.run()
    p.interrupt("too late")
    sim.run()
    assert p.value == "ok"


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield "not an event"

    p = sim.process(bad(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_run_until_stops_at_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)

    sim.process(proc(sim))
    sim.run(until=4)
    assert sim.now == 4
    sim.run()
    assert sim.now == 10


def test_run_until_past_is_error():
    sim = Simulator()
    sim.run(until=5)
    with pytest.raises(SimulationError):
        sim.run(until=1)


def _ticking_sim():
    sim = Simulator()

    def ticker(period):
        while True:
            yield sim.timeout(period)

    def worker():
        for _ in range(7):
            yield sim.timeout(0.3)
        return "done"

    sim.process(ticker(0.25))
    sim.process(ticker(1.0))
    return sim, sim.process(worker())


def test_run_until_event_stops_where_single_stepping_would():
    """``run(until=event)`` is the ``while not event.triggered: step()``
    loop: same last event, same clock, same number of loop trips."""
    sim_a, proc_a = _ticking_sim()
    sim_a.run(until=proc_a)
    sim_b, proc_b = _ticking_sim()
    while not proc_b.triggered:
        sim_b.step()
    assert proc_a.triggered and proc_a.value == "done"
    assert not proc_a.processed       # stops at the trigger, not after it
    assert sim_a.now == sim_b.now == pytest.approx(2.1)
    assert sim_a._n_steps == sim_b._n_steps
    assert sim_a._n_inline == sim_b._n_inline
    assert sim_a._seq == sim_b._seq


def test_run_until_triggered_event_processes_nothing():
    sim, proc = _ticking_sim()
    sim.run(until=proc)
    steps = sim._n_steps
    sim.run(until=proc)
    assert sim._n_steps == steps


def test_run_until_event_returns_when_the_queues_drain_first():
    sim = Simulator()
    never = sim.event()
    sim.timeout(3)
    sim.run(until=never)
    assert sim.now == 3 and not never.triggered


def test_run_process_detects_deadlock():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # nobody will ever trigger this

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck(sim))


def test_nested_yield_from_composition():
    sim = Simulator()

    def inner(sim):
        yield sim.timeout(1)
        return 10

    def middle(sim):
        v = yield from inner(sim)
        yield sim.timeout(1)
        return v + 5

    def outer(sim):
        v = yield from middle(sim)
        return v * 2

    assert sim.run_process(outer(sim)) == 30
    assert sim.now == 2


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7)
    assert sim.peek() == 7


# -- one step body: every way into a generator is ``Process._resume`` ---------

def _entries(monkeypatch, drive):
    """Run the kick-off / resume / interrupt / stale-wake-up script under
    ``drive(sim, proc)``; returns what the generator logged, every entry
    into ``Process._resume`` as ``(kind of event, event ok?, process
    advanced?)``, and the kernel's counters."""
    from repro.sim.engine import Process

    sim = Simulator()
    ran, entries = [], []
    real = Process._resume

    def recording(proc, event):
        before = len(ran)
        real(proc, event)
        if proc is victim:
            entries.append((type(event).__name__, event._ok,
                            len(ran) > before))

    monkeypatch.setattr(Process, "_resume", recording)

    def sleeper():
        ran.append("kick-off")
        yield sim.timeout(1)
        ran.append("resumed")
        try:
            yield sim.timeout(10)
            ran.append("never")
        except Interrupt as i:
            ran.append(f"interrupted:{i.cause}")
        yield sim.timeout(50)
        ran.append("done")
        return "ok"

    def killer():
        yield sim.timeout(2)
        victim.interrupt("crash")
        # A wake-up from an event the victim is not waiting on.
        sim.timeout(3).callbacks.append(victim._resume)

    victim = sim.process(sleeper())
    sim.process(killer())
    drive(sim, victim)
    assert victim.value == "ok" and sim.now == 52
    return ran, entries, (sim._n_steps, sim._n_inline, sim._seq)


def test_every_entry_into_a_generator_is_the_one_step_body(monkeypatch):
    ran, entries, _ = _entries(monkeypatch, lambda sim, proc: sim.run())
    assert ran == ["kick-off", "resumed", "interrupted:crash", "done"]
    assert entries == [
        ("Event", True, True),          # kick-off, via its start event
        ("Timeout", True, True),        # normal resume
        ("Event", False, True),         # interrupt: a failed wake-up event
        ("Timeout", True, False),       # stale: dropped by the prologue
        ("Timeout", True, True),
    ]


def test_run_until_event_and_single_stepping_enter_the_same_step_body(
        monkeypatch):
    def stepping(sim, proc):
        while not proc.triggered:
            sim.step()

    assert (_entries(monkeypatch, lambda sim, proc: sim.run(until=proc))
            == _entries(monkeypatch, stepping))
