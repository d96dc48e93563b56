"""The change-driven resource sampler against the full scan it replaced.

``Observability._sample_loop`` reads a resource only when the resource has
said its state changed, and stores unchanged stretches as runs. Its
contract is that the series it produces are *equal* to what reading every
resource on every tick gave. The old loop and the old point-per-tick
series live on here as the oracle.
"""

import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.obs import Observability, Series, chrome_trace_events
from repro.sim import BandwidthPipe, Resource, Simulator

INTERVAL = 2e-3


# -- the oracle: the sampler and the series as they were ----------------------

class PointSeries:
    """``Series`` before runs: one stored point per kept tick."""

    def __init__(self):
        self.times, self.values = [], []
        self._stride, self._tick = 1, 0

    def add(self, t, v):
        self._tick += 1
        if self._tick % self._stride:
            return
        self.times.append(t)
        self.values.append(v)
        if len(self.times) >= Series.MAX_POINTS:
            self.times = self.times[::2]
            self.values = self.values[::2]
            self._stride *= 2

    def to_dict(self):
        return {"t": self.times, "v": self.values}


def full_scan_loop(sim, sampled, series, interval):
    """Every resource, every tick."""
    bound = []
    for label, obj in sampled:
        res = getattr(obj, "_res", obj)  # unwrap BandwidthPipe
        bound.append((series.setdefault(label + ".qdepth", PointSeries()),
                      series.setdefault(label + ".util", PointSeries()),
                      res))
    while True:
        now = sim.now
        for qd, util, res in bound:
            qd.add(now, res.queue_length)
            util.add(now, res.in_use / res.capacity)
        yield sim.timeout(interval)


# -- a schedule of requests, releases and cancellations -----------------------

def _client(sim, target, start, hold, patience, raw):
    yield sim.timeout(start)
    if isinstance(target, BandwidthPipe):
        # hold doubles as the byte count; 0 is a zero-duration transfer.
        yield from target.transfer(int(hold * 1e6))
        return
    if patience is None and not raw:
        yield from target.use(hold)  # pooled requests, zero holds included
        return
    req = target.request()
    if not req.granted:
        if patience is None:
            yield req
        else:
            yield sim.timeout(patience)
            if not req.granted:
                target.release(req)  # cancelled while queued
                return
    yield sim.timeout(hold)
    target.release(req)


def _build(sim):
    return [("cpu", Resource(sim, capacity=2, name="n.cpu")),
            ("osd", Resource(sim, capacity=1, name="osd.q")),
            ("pipe", BandwidthPipe(sim, 1e6, lanes=2, name="n.nic")),
            ("idle", Resource(sim, capacity=4, name="idle"))]


def _run(schedule, until, reference):
    """One simulation of ``schedule``; returns ``{name: series}``, in the
    order the series were created."""
    sim = Simulator()
    sampled = _build(sim)
    if reference:
        series = {}
        sim.process(full_scan_loop(sim, sampled, series, INTERVAL),
                    name="obs.sampler")
    else:
        obs = Observability.of(sim)
        for label, res in sampled:
            obs.sample_resource(label, res)
        obs.start_sampling(INTERVAL)
    for which, start, hold, patience, raw in schedule:
        sim.process(_client(sim, sampled[which][1], start, hold, patience,
                            raw))
    sim.run(until=until)
    if not reference:
        series = {name: m for name, m in obs.metrics.items()
                  if isinstance(m, Series)}
    return series


def _data(series):
    return {name: (s.times, s.values, s.to_dict())
            for name, s in series.items()}


_OPS = st.tuples(
    st.integers(0, 2),                                   # which resource
    st.floats(0, 0.2).map(lambda x: round(x, 4)),        # start
    st.sampled_from([0.0, 1e-4, 1e-3, 3e-3, 0.011]),     # hold
    st.sampled_from([None, None, 5e-4, 4e-3]),           # patience
    st.sampled_from([False, True, True]),                # request/release
)


@settings(max_examples=200, deadline=None)
@given(schedule=st.lists(_OPS, max_size=40),
       max_points=st.sampled_from([4, 16, Series.MAX_POINTS]))
def test_equal_to_full_scan(schedule, max_points):
    # 130 ticks: with MAX_POINTS 4 or 16 the sketch decimates many times,
    # on ticks that are kept and ticks that are not.
    with mock.patch.object(Series, "MAX_POINTS", max_points):
        got = _run(schedule, 0.26, reference=False)
        want = _run(schedule, 0.26, reference=True)
    assert _data(got) == _data(want)
    assert list(got) == list(want), "series registered in another order"


def test_equal_to_full_scan_beyond_max_points():
    """The real ``MAX_POINTS``, three decimations deep, busy and idle."""
    # Bursts of four requests per resource, so queues form and drain.
    schedule = [(i % 3, round((i // 12) * 0.16, 4), (i % 5) * 1.5e-3,
                 [None, 6e-3][i % 2], i % 3 != 0)
                for i in range(900)]
    until = (2 * Series.MAX_POINTS + 2500) * INTERVAL
    got = _run(schedule, until, reference=False)
    want = _run(schedule, until, reference=True)
    assert _data(got) == _data(want)
    qdepth = got["osd.qdepth"].values
    assert len(qdepth) < Series.MAX_POINTS and len(set(qdepth)) > 1
    assert set(got["idle.util"].values) == {0.0}


# -- cost: idle resources are never visited -----------------------------------

def test_idle_resources_cost_nothing_after_first_tick():
    reads = []

    class Counted(Resource):
        @property
        def queue_length(self):
            reads.append(self)
            return Resource.queue_length.fget(self)

    sim = Simulator()
    obs = Observability.of(sim)
    idle = [Counted(sim, name=f"osd{i}.q") for i in range(300)]
    for i, res in enumerate(idle):
        obs.sample_resource(f"osd{i}.q", res)
    obs.start_sampling(INTERVAL)
    sim.run(until=INTERVAL / 2)
    assert len(reads) == 300          # the first tick reads everything once
    sim.run(until=10.0)
    assert len(reads) == 300          # ... and 5000 more ticks read nothing
    series = obs.metrics.get("osd7.q.qdepth")
    assert len(series.times) == len(series.values) > Series.MAX_POINTS // 2
    assert set(series.values) == {0}
    assert sum(len(runs) for _label, runs in obs._sampled.values()) == 300


def test_stop_sampling_unhooks_resources_and_keeps_data():
    sim = Simulator()
    obs = Observability.of(sim)
    res = Resource(sim, name="n.cpu")
    pipe = BandwidthPipe(sim, 1e6, name="n.nic")
    obs.sample_resource("cpu", res)
    obs.sample_resource("nic", pipe)
    obs.start_sampling(INTERVAL)
    sim.process(res.use(5e-3))
    sim.run(until=0.02)
    assert res._watch is not None and pipe._res._watch is res._watch
    before = obs.metrics.get("cpu.util").to_dict()
    assert set(before["v"]) == {0.0, 1.0}
    obs.stop_sampling()
    assert res._watch is None and pipe._res._watch is None
    assert not obs._sampled
    sim.run(until=0.04)               # the sampler process ends, no ticks
    assert obs.metrics.get("cpu.util").to_dict() == before


# -- consumers see what they saw before ---------------------------------------

def test_exports_match_full_scan():
    schedule = [(i % 3, round(i * 0.004, 4), 2.5e-3, None, None)
                for i in range(60)]
    got = _run(schedule, 0.3, reference=False)
    want = _run(schedule, 0.3, reference=True)

    def counter_events(series):
        return chrome_trace_events(
            [], counters=[(1, name, s) for name, s in series.items()])

    events = counter_events(got)
    assert events == counter_events(want)
    ticks = len(got["cpu.util"].times)
    assert len(events) == 8 * ticks and any(e["args"]["value"] for e in events)

    def snapshot_json(series):
        return json.dumps({name: series[name].to_dict()
                           for name in sorted(series)}, allow_nan=False)

    assert snapshot_json(got) == snapshot_json(want)
