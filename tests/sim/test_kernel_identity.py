"""Ordering and bit-identity pins: production scheduler vs heap-only oracle.

The production kernel (ready deque + immediate resume, DESIGN.md §10) must
execute every workload in the exact event order of the single ``(time,
seq)`` heap scheduler kept in :mod:`tests.sim.reference_kernel`. These
tests pin that equivalence three ways: a same-timestamp FIFO property,
randomized mixed workloads traced under both kernels, and the small-scale
paper figures compared output-for-output.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (BandwidthPipe, NetParams, Network, Node, Resource,
                       Simulator, Store)
from repro.sim.stats import kernel_counters

from .reference_kernel import ReferenceSimulator


def _fifo_trace(make_sim, n_procs, n_rounds):
    sim = make_sim()
    order = []

    def proc(k):
        for i in range(n_rounds):
            yield sim.timeout(0)
            order.append((sim.now, k, i))

    for k in range(n_procs):
        sim.process(proc(k))
    sim.run()
    return order


def test_same_timestamp_events_run_in_fifo_order():
    """Zero-delay events at one timestamp run in scheduling order, and the
    ready deque reproduces the heap scheduler's order exactly."""
    prod = _fifo_trace(Simulator, n_procs=5, n_rounds=4)
    ref = _fifo_trace(ReferenceSimulator, n_procs=5, n_rounds=4)
    assert prod == ref
    # Round-robin in spawn order at every round: FIFO within a timestamp.
    assert prod == [(0.0, k, i) for i in range(4) for k in range(5)]


#: One step of a randomized process. Beyond plain waits, the zero-length
#: shapes, where every event of a step is due at ``now`` and the ready
#: deque carries all of it: zero-hold ``Resource.use`` on an idle
#: (per-process) and on a contended (shared, capacity-1) resource,
#: zero-byte pipe transfers, and RPCs over a zero-latency,
#: infinite-bandwidth network.
_ACTIONS = st.sampled_from([
    ("sleep", 0.0), ("sleep", 1e-3), ("sleep", 2e-3),
    ("use", "idle", 0.0), ("use", "shared", 0.0), ("use", "shared", 1e-3),
    ("xfer", 0), ("xfer", 4096),
    ("rpc",),
])


def _run_plan(make_sim, plan):
    sim = make_sim()
    trace = []
    shared = Resource(sim, capacity=1, name="shared.cpu")
    pipe = BandwidthPipe(sim, 1e6, name="disk")
    net = Network(sim, NetParams(latency_s=0.0, bandwidth_bps=float("inf")))
    server = Node(sim, "server", net=net)

    def echo(k):
        trace.append(("echo", sim.now, k))
        return k
        yield  # pragma: no cover - marks this as a generator

    server.register("echo", echo)

    def proc(k, delay, actions):
        idle = Resource(sim, capacity=1, name=f"p{k}.cpu")
        node = Node(sim, f"p{k}", net=net)
        yield sim.timeout(delay)
        trace.append(("t", sim.now, k))
        for i, act in enumerate(actions):
            if act[0] == "sleep":
                yield sim.timeout(act[1])
            elif act[0] == "use":
                res = idle if act[1] == "idle" else shared
                yield from res.use(act[2])
            elif act[0] == "xfer":
                yield from pipe.transfer(act[1])
            else:
                got = yield from node.call(server, "echo", k)
                assert got == k
            trace.append((act[0], sim.now, k, i))

    for k, (delay, actions) in enumerate(plan):
        sim.process(proc(k, delay, actions))
    sim.run()
    moved = {"messages_sent": net.messages_sent, "bytes_sent": net.bytes_sent,
             "pipe": pipe.bytes_moved,
             "nics": {n: node.nic.bytes_moved for n, node in net.nodes.items()}}
    return trace, moved, kernel_counters(sim)


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from([0.0, 1e-3, 2e-3, 5e-3]),
              st.lists(_ACTIONS, max_size=6)),
    min_size=1, max_size=12))
def test_production_and_reference_schedulers_produce_identical_traces(plan):
    """Property: arbitrary mixes of zero-delay chains, timed waits,
    zero-hold and timed resource holds, zero-byte and real transfers, and
    zero-latency RPCs execute in the same order, at the same times, moving
    the same bytes, under both kernels — and the oracle never inlines."""
    p_trace, p_moved, _p_counters = _run_plan(Simulator, plan)
    r_trace, r_moved, r_counters = _run_plan(ReferenceSimulator, plan)
    assert p_trace == r_trace
    assert p_moved == r_moved
    assert r_counters["inline_events"] == 0
    # Single heap: every event the oracle dispatched paid a heap push.
    assert r_counters["heap_pushes"] >= r_counters["loop_events"]


def test_mixed_resource_store_workload_identical():
    """Resources (timed + zero holds, contention), stores, and process
    awaits produce identical traces under both kernels — covering the
    grant/release and immediate-resume paths."""

    def run(make_sim):
        sim = make_sim()
        trace = []
        res = Resource(sim, capacity=2, name="cpu")
        store = Store(sim)

        def worker(k):
            for i in range(6):
                yield from res.use(((k + i) % 3) * 1e-3)
                trace.append(("w", sim.now, k, i))

        def producer():
            for i in range(10):
                store.put(i)
                yield sim.timeout(0.4e-3)
                trace.append(("p", sim.now, i))

        def consumer():
            for _ in range(10):
                v = yield store.get()
                trace.append(("c", sim.now, v))

        def parent():
            child = sim.process(worker(99))
            trace.append(("spawned", sim.now))
            got = yield child
            trace.append(("joined", sim.now, got))

        for k in range(4):
            sim.process(worker(k))
        sim.process(producer())
        sim.process(consumer())
        sim.process(parent())
        sim.run()
        return trace

    assert run(Simulator) == run(ReferenceSimulator)


def test_immediate_resume_fires_and_matches_reference():
    """Yielding an already-granted request takes the inline resume (no
    run-loop round trip) with results identical to the heap kernel."""

    def run(make_sim):
        sim = make_sim()
        res = Resource(sim, capacity=1)
        order = []

        def w():
            for i in range(50):
                req = res.request()
                yield req
                order.append((sim.now, i))
                res.release(req)

        sim.run_process(w())
        return order, kernel_counters(sim)["inline_events"]

    prod_order, prod_inline = run(Simulator)
    ref_order, ref_inline = run(ReferenceSimulator)
    assert prod_order == ref_order
    assert prod_inline == 50     # every wait consumed inline
    assert ref_inline == 0       # reference kernel never inlines


_FIGURES = ["fig4", "fig6a", "table2"]


@pytest.mark.parametrize("figure", _FIGURES)
def test_small_scale_figures_bit_identical_production_vs_reference(
        figure, monkeypatch):
    """The paper figures at small scale are byte-identical (as sorted JSON)
    whether the production or the heap-only scheduler runs them."""
    from repro.bench import SMALL, figures

    fn = {"fig4": figures.fig4_mdtest_easy, "fig6a": figures.fig6a_fio_rados,
          "table2": figures.table2_archiving}[figure]
    prod = json.dumps(fn(SMALL), sort_keys=True)

    built = []

    class Counting(ReferenceSimulator):
        # Counts, not keeps: holding every finished cluster alive through
        # its simulator triples this test's run time.
        def __init__(self):
            super().__init__()
            built.append(1)

    monkeypatch.setattr(figures, "Simulator", Counting)
    ref = json.dumps(fn(SMALL), sort_keys=True)
    assert prod == ref
    # The substitution reached the simulators the figure built.
    assert built
