"""A run pauses the cyclic collector and leaves it as the caller had it.

During a run every collection walks the live simulator and frees nothing
(DESIGN §10), so ``Simulator.run`` disables the collector for its loop
and restores the caller's state on the way out, whether the run returns
or raises.
"""

import gc

import pytest

from repro.sim import SimulationError, Simulator


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collecting(request):
    """The collector's state before the run, restored after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _ticks(sim, seen, n=3):
    for _ in range(n):
        seen.append(gc.isenabled())
        yield sim.timeout(1)
    return n


def test_a_run_leaves_the_collector_as_it_found_it(collecting):
    sim = Simulator()
    seen = []
    sim.process(_ticks(sim, seen))
    sim.run(until=1.5)
    assert gc.isenabled() == collecting
    sim.run()
    assert gc.isenabled() == collecting
    assert sim.run_process(_ticks(sim, seen)) == 3
    assert gc.isenabled() == collecting
    assert seen == [False] * 6            # paused inside every run


def test_a_failing_process_leaves_the_collector_as_it_found_it(collecting):
    sim = Simulator()

    def fails():
        yield sim.timeout(1)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run_process(fails())
    assert gc.isenabled() == collecting


def test_running_backwards_leaves_the_collector_as_it_found_it(collecting):
    sim = Simulator()
    sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)
    assert gc.isenabled() == collecting


def test_a_callback_raising_in_the_loop_leaves_the_collector(collecting):
    sim = Simulator()
    event = sim.event()

    def explode(_event):
        raise RuntimeError("callback")

    event.callbacks.append(explode)
    event.succeed()
    with pytest.raises(RuntimeError, match="callback"):
        sim.run()
    assert gc.isenabled() == collecting


def test_no_collection_runs_inside_a_run():
    """Processes that allocate ten young generations' worth of container
    objects trigger no collection between the first and the last event
    of a run."""
    n = 10 * gc.get_threshold()[0]
    steps = n // 4 // 50
    starts = []
    marks = []
    kept = []

    def on_gc(phase, _info):
        if phase == "start":
            starts.append(None)

    def allocate():
        for _ in range(steps):
            kept.extend([] for _ in range(50))
            yield sim.timeout(1)

    def bracket():
        marks.append(len(starts))          # the run's first event
        yield sim.timeout(steps + 1)       # after every allocation
        marks.append(len(starts))

    sim = Simulator()
    last = sim.process(bracket())
    for _ in range(4):
        sim.process(allocate())
    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        sim.run(until=last)
    finally:
        gc.callbacks.remove(on_gc)
        (gc.enable if was else gc.disable)()
    assert len(kept) >= n
    assert marks == [0, 0]
