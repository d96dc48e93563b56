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

from repro.sim import (BandwidthPipe, Interrupt, NetParams, Network, Node,
                       Resource, Simulator, Store)
from repro.sim.stats import kernel_counters

from .hold_census import hold_census
from .reference_kernel import ReferenceSimulator, textbook_use


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


def test_production_and_reference_schedulers_produce_identical_traces():
    """Property: arbitrary mixes of zero-delay chains, timed waits,
    zero-hold and timed resource holds, zero-byte and real transfers, and
    zero-latency RPCs execute in the same order, at the same times, moving
    the same bytes, under both kernels — and the oracle never inlines.
    Over the run, production holds do take the grant-less arm, the
    oracle's never."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from([0.0, 1e-3, 2e-3, 5e-3]),
                  st.lists(_ACTIONS, max_size=6)),
        min_size=1, max_size=12))
    def check(plan):
        p_trace, p_moved, _p_counters = _run_plan(Simulator, plan)
        r_trace, r_moved, r_counters = _run_plan(ReferenceSimulator, plan)
        assert p_trace == r_trace
        assert p_moved == r_moved
        assert r_counters["inline_events"] == 0
        # Single heap: every event the oracle dispatched paid a heap push.
        assert r_counters["heap_pushes"] >= r_counters["loop_events"]

    with hold_census() as seen:
        check()
    assert seen["grantless"] > 0 and seen["oracle_grantless"] == 0


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


def test_timed_use_consumes_an_uncontended_grant_inline():
    """A lone process's grant is the next event the loop would pop: the
    hold primitive consumes it in place — one inline event and one heap
    push per ``use``, as with the two-yield body — and the oracle, whose
    ready sink is always empty, never does."""
    def run(make_sim):
        sim = make_sim()
        res = Resource(sim, capacity=1)

        def w():
            for _ in range(50):
                yield from res.use(1e-3)

        sim.run_process(w())
        return sim.now, kernel_counters(sim)

    now, fused = run(Simulator)
    assert fused["inline_events"] == 50
    assert fused["heap_pushes"] == 50
    with textbook_use():
        assert run(Simulator) == (now, fused)
    assert run(ReferenceSimulator)[1]["inline_events"] == 0


def test_nothing_is_consumed_inline_inside_a_multi_callback_pass():
    """Two processes wake on one event. The first yields a grant that sits
    at the front of the ready deque, but the second waiter's wake-up is
    still pending in the same callback pass and comes first in (time, seq)
    order."""

    def run(make_sim):
        sim = make_sim()
        res = Resource(sim, capacity=2)
        gong = sim.event()
        order = []

        def waiter(k):
            yield gong
            order.append(("woke", k))
            yield from res.use(0.0)
            order.append(("used", k))

        def ringer():
            yield sim.timeout(1.0)
            gong.succeed()
            # Keep this process's own completion event out of the ready
            # deque, so the first waiter's grant really is at its front.
            yield sim.timeout(1.0)

        for k in range(2):
            sim.process(waiter(k))
        sim.process(ringer())
        sim.run()
        return order

    assert run(Simulator) == run(ReferenceSimulator) == [
        ("woke", 0), ("woke", 1), ("used", 0), ("used", 1)]


def test_rewaiting_on_an_event_after_an_interrupt_keeps_its_turn():
    """A process interrupted away from an event and later waiting on the
    same event again is resumed in the order of its *second* wait. (Its
    first wait's callback used to stay on the event: the heap scheduler then
    resumed it ahead of earlier waiters, while the inline resume, which
    runs the other waiters first, did not.)"""

    def run(make_sim):
        sim = make_sim()
        gong = sim.event()
        order = []

        def fickle():
            try:
                yield gong
            except Interrupt:
                order.append("interrupted")
            yield sim.timeout(1.0)
            yield gong                  # triggered, not yet processed
            order.append("fickle")

        def steady():
            yield gong
            order.append("steady")

        def director():
            yield sim.timeout(0)
            first.interrupt()
            yield sim.timeout(1.0)      # due at 1.0, ahead of fickle's
            gong.succeed()

        first = sim.process(fickle())
        sim.process(steady())
        sim.process(director())
        sim.run()
        return order

    assert run(Simulator) == run(ReferenceSimulator) == [
        "interrupted", "steady", "fickle"]


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


# -- one resume per hold (DESIGN.md §10) --------------------------------------
#
# Random programs run with the fused ``Resource.use`` and with its textbook
# two-yield definition, on the production scheduler and on the oracle.

_T = [0.0, 0.5e-3, 1e-3, 1.5e-3, 2e-3]       # one lattice: instants collide

_STEP = st.one_of(
    st.tuples(st.just("use"), st.integers(0, 2), st.sampled_from(_T)),
    st.tuples(st.just("sleep"), st.sampled_from(_T)),
    st.tuples(st.just("xfer"), st.sampled_from([0, 500, 1000])),
    st.tuples(st.just("gong")),
)
_STEPS = st.lists(_STEP, max_size=5)
_PROGRAM = st.lists(
    st.one_of(_STEP, st.tuples(st.just("spawn"), _STEPS, st.booleans())),
    max_size=6)


def _run_program(make_sim, programs, interrupts, gong_at):
    sim = make_sim()
    trace = []
    shared = [Resource(sim, capacity=c, name=f"r{c}.cpu") for c in (1, 2, 3)]
    pipe = BandwidthPipe(sim, 1e6, name="disk")     # 1000 B = 1e-3 s
    gong = sim.event()

    def observe():
        return tuple((r.in_use, r.queue_length) for r in shared + [pipe._res])

    def run(label, steps):
        for i, step in enumerate(steps):
            try:
                if step[0] == "use":
                    yield from shared[step[1]].use(step[2])
                elif step[0] == "sleep":
                    yield sim.timeout(step[1])
                elif step[0] == "xfer":
                    yield from pipe.transfer(step[1])
                elif step[0] == "gong":
                    # Several waiters on one event: a multi-callback pass,
                    # during which nothing may be consumed inline.
                    yield gong
                else:
                    child = sim.process(run(f"{label}.{i}", step[1]))
                    if step[2]:
                        yield child
                trace.append((sim.now, label, i, observe()))
            except Interrupt:
                trace.append((sim.now, label, i, "interrupted", observe()))

    procs = [sim.process(run(str(k), steps))
             for k, steps in enumerate(programs)]

    def striker(at, victim):
        yield sim.timeout(at)
        procs[victim % len(procs)].interrupt()

    def ringer():
        yield sim.timeout(gong_at)
        gong.succeed()

    # After the programs: their first timeouts (and holds) get the lower
    # ``seq``, so same-instant strikes land in every window of a ``use``.
    for at, victim in interrupts:
        sim.process(striker(at, victim))
    sim.process(ringer())
    sim.run()
    assert all(r.in_use == 0 and r.queue_length == 0 for r in shared)
    return trace, sim.now, kernel_counters(sim)


def test_fused_use_is_the_textbook_use():
    """Property: processes mixing timed and zero-hold ``use`` on shared
    FIFO resources of capacity 1-3 with timeouts, pipe transfers, a shared
    event, spawned children and interrupts at colliding instants log the
    same ``(time, process, step)`` trace and the same ``in_use`` /
    ``queue_length`` at every observation whether ``use`` resumes them once
    per hold or twice — with the same loop/inline/heap counts on the
    production scheduler, and nothing inlined on the oracle. Over the run,
    fused holds on the production scheduler do take the grant-less arm;
    on the oracle none does."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_PROGRAM, min_size=1, max_size=6),
           st.lists(st.tuples(st.sampled_from(_T + [2.5e-3, 3e-3, 4e-3]),
                              st.integers(0, 5)), max_size=6),
           st.sampled_from(_T))
    def check(programs, interrupts, gong_at):
        fused = _run_program(Simulator, programs, interrupts, gong_at)
        fused_oracle = _run_program(ReferenceSimulator, programs, interrupts,
                                    gong_at)
        with textbook_use():
            textbook = _run_program(Simulator, programs, interrupts, gong_at)
            oracle = _run_program(ReferenceSimulator, programs, interrupts,
                                  gong_at)
        assert fused == textbook                        # counters included
        assert fused[:2] == oracle[:2] == fused_oracle[:2]
        assert oracle[2]["inline_events"] == 0
        assert fused_oracle[2]["inline_events"] == 0
        assert fused_oracle[2] == oracle[2]

    with hold_census() as seen:
        check()
    assert seen["grantless"] > 0 and seen["oracle_grantless"] == 0
