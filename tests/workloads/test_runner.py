"""``run_phase``: the barrier every workload phase runs behind."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.stats import kernel_counters
from repro.workloads.runner import run_phase


def test_run_phase_stops_at_the_barrier_not_at_the_end_of_the_queues():
    """Background processes keep the queues non-empty forever; the phase
    ends with the event that completes its last process."""
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(1.0)

    def worker(n):
        yield sim.timeout(n + 0.5)

    background = sim.process(ticker())
    run_phase(sim, [sim.process(worker(n)) for n in (1, 3)])
    assert sim.now == 3.5
    assert background.is_alive


def test_run_phase_drives_the_same_events_as_single_stepping():
    def build():
        sim = Simulator()

        def worker(k):
            for i in range(5):
                yield sim.timeout((k + i) % 3 * 1e-3)

        return sim, [sim.process(worker(k)) for k in range(4)]

    sim_a, procs = build()
    run_phase(sim_a, procs)
    sim_b, procs = build()
    done = sim_b.all_of(procs)
    while not done.triggered:
        sim_b.step()
    assert sim_a.now == sim_b.now
    assert kernel_counters(sim_a) == kernel_counters(sim_b)


def test_run_phase_names_the_processes_that_can_never_finish():
    """A phase whose queues drain with work outstanding is a deadlock in
    the model; say which processes, not ``IndexError`` out of heappop."""
    sim = Simulator()
    never = sim.event()

    def stuck():
        yield never

    def fine():
        yield sim.timeout(1.0)

    procs = [sim.process(fine(), name="fine[0]"),
             sim.process(stuck(), name="stuck[1]"),
             sim.process(stuck(), name="stuck[2]")]
    with pytest.raises(SimulationError) as exc:
        run_phase(sim, procs)
    message = str(exc.value)
    assert "stuck[1]" in message and "stuck[2]" in message
    assert "fine[0]" not in message
    assert "2 of 3" in message


def test_run_phase_reraises_a_failed_process():
    sim = Simulator()

    def boom():
        yield sim.timeout(1.0)
        raise KeyError("model bug")

    def slow():
        yield sim.timeout(5.0)

    with pytest.raises(KeyError, match="model bug"):
        run_phase(sim, [sim.process(slow()), sim.process(boom())])
    assert sim.now == 1.0             # fails fast, as AllOf does
