"""Cross-layer observability: span tracing, metrics, exporters.

Usage::

    from repro.obs import Observability

    sim = Simulator()
    obs = Observability.of(sim)           # lazy-attached, one per sim
    obs.enable_tracing(pid_name="arkfs")  # spans from here on
    ... build cluster, run workload ...
    write_chrome_trace("out.json", [obs.tracer])
    print(format_attribution("read latency", attribute_latency(obs.tracer)))

Components find the shared :class:`MetricsRegistry` through
``Observability.of(sim).metrics`` and pre-bind their counters; the span
tracer is only consulted through ``sim._tracer`` (``None`` while disabled),
so untraced runs pay one attribute check per instrumentation site.
Instrumentation never schedules events — enabling it cannot perturb the
simulated schedule.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .export import (
    PRIMITIVE_CATS,
    attribute_latency,
    chrome_trace_events,
    format_attribution,
    root_waterfalls,
    write_chrome_trace,
)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry, SampleClock,
                      Series)
from .recorder import RECORDER_SCHEMA, FlightRecorder
from .slowlog import SLOWLOG_SCHEMA, SlowOpLog
from .trace import (
    NULL_SPAN,
    ROOT_CAT,
    RootOpObserver,
    Span,
    SpanTracer,
    is_sampled,
    sample_threshold,
    span,
)

__all__ = [
    "Observability",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "Series",
    "SpanTracer", "Span", "span", "NULL_SPAN", "ROOT_CAT",
    "RootOpObserver", "sample_threshold", "is_sampled",
    "SlowOpLog", "SLOWLOG_SCHEMA",
    "FlightRecorder", "RECORDER_SCHEMA",
    "chrome_trace_events", "write_chrome_trace",
    "attribute_latency", "root_waterfalls",
    "format_attribution", "PRIMITIVE_CATS",
]

#: Default sampling period for queue-depth/utilization series (sim seconds).
DEFAULT_SAMPLE_INTERVAL = 2e-3


class Observability:
    """Per-simulation observability state: registry + tracer + samplers."""

    def __init__(self, sim):
        self.sim = sim
        self.metrics = MetricsRegistry()
        self.tracer: Optional[SpanTracer] = None
        self.sample_rate = 0.0   # 1.0 = full tracing, 0 < r < 1 = sampled
        self.slowlog: Optional[SlowOpLog] = None
        self.recorder: Optional[FlightRecorder] = None
        self._op_observer: Optional[RootOpObserver] = None
        # resource -> (label, its run list [(first_tick, qdepth, util)])
        self._sampled: Dict[object, Tuple[str, list]] = {}
        self._sampling = False

    @classmethod
    def of(cls, sim) -> "Observability":
        """The sim's Observability, attached on first use."""
        obs = getattr(sim, "_obs", None)
        if obs is None:
            obs = cls(sim)
            sim._obs = obs
        return obs

    # -- tracing -------------------------------------------------------------

    def enable_tracing(self, pid: int = 1, pid_name: str = "sim",
                       sample_rate: float = 1.0) -> SpanTracer:
        """Install a span tracer.

        ``sample_rate >= 1`` is *full* tracing: every span site is active
        (``sim._tracer`` set globally), exactly the pre-sampling behavior.
        ``0 < sample_rate < 1`` is *sampled* tracing: the tracer goes in as
        ``sim._sample_tracer`` and only root ops picked by the
        deterministic hash (and their child processes) see a non-``None``
        ``sim._tracer``. Idempotent: an already-installed tracer is never
        replaced (in particular a full tracer is never downgraded to a
        sampled one by a later default-rate call).
        """
        if self.tracer is None:
            self.tracer = SpanTracer(self.sim, pid=pid, pid_name=pid_name)
            if sample_rate >= 1.0:
                self.sample_rate = 1.0
                self.sim._tracer = self.tracer
            else:
                self.sample_rate = float(sample_rate)
                ob = self._ensure_op_observer()
                ob.tracer = self.tracer
                ob.rate = self.sample_rate
                ob.threshold = sample_threshold(self.sample_rate)
                self.sim._sample_tracer = self.tracer
        if self.slowlog is not None:
            self.slowlog.tracer = self.tracer
        return self.tracer

    # -- slow-op log / flight recorder ----------------------------------------

    def enable_slowlog(self, **kwargs) -> SlowOpLog:
        """Install the slow-op log (idempotent; kwargs → SlowOpLog)."""
        if self.slowlog is None:
            self.slowlog = SlowOpLog(self.sim, **kwargs)
            self._ensure_op_observer().slowlog = self.slowlog
        # Waterfalls need whichever tracer is live (full or sampled).
        self.slowlog.tracer = self.tracer
        return self.slowlog

    def enable_recorder(self, capacity: Optional[int] = None
                        ) -> FlightRecorder:
        """Install the flight recorder (idempotent) as ``sim._recorder``."""
        if self.recorder is None:
            if capacity is None:
                self.recorder = FlightRecorder(self.sim)
            else:
                self.recorder = FlightRecorder(self.sim, capacity=capacity)
            self.sim._recorder = self.recorder
            self._ensure_op_observer().recorder = self.recorder
        return self.recorder

    def _ensure_op_observer(self) -> RootOpObserver:
        ob = self._op_observer
        if ob is None:
            ob = RootOpObserver(self.sim,
                                self.metrics.counter("obs.root_ops"),
                                self.metrics.counter("obs.sampled_ops"))
            self._op_observer = ob
            self.sim._obs_ops = ob
        return ob

    # -- periodic resource sampling ------------------------------------------

    def sample_resource(self, label: str, res) -> None:
        """Register a Resource or BandwidthPipe for periodic queue-depth and
        utilization sampling (call :meth:`start_sampling` afterwards)."""
        res = getattr(res, "_res", res)  # unwrap BandwidthPipe
        if res in self._sampled:
            raise ValueError(f"{label}: resource is already sampled as "
                             f"{self._sampled[res][0]!r}")
        self._sampled[res] = (label, [])

    def start_sampling(self,
                       interval: float = DEFAULT_SAMPLE_INTERVAL) -> None:
        """Start the sampler process (idempotent; no-op without targets).

        The sampler only *reads* resource state, so while it does add heap
        events, it cannot change any application-visible outcome — pairwise
        ordering of application events is preserved.
        """
        if self._sampling or not self._sampled:
            return
        self._sampling = True
        self.sim.process(self._sample_loop(interval), name="obs.sampler")

    def stop_sampling(self) -> None:
        """Let go of every sampled resource (the series keep their data);
        the sampler process ends at its next tick."""
        for res in self._sampled:
            res._watch = None
        self._sampled.clear()
        self._sampling = False

    def _sample_loop(self, interval: float):
        """One tick per ``interval``; a resource is read only if it changed.

        Each sampled resource reports every change of ``in_use`` /
        ``queue_length`` by adding itself to ``dirty`` (its ``_watch``);
        a kept tick reads the dirty ones and starts a new run where the
        reading differs from the resource's last. A tick the shared clock
        does not keep reads nothing — the changes wait in ``dirty`` for
        the next kept one. The series are point-for-point what reading
        every resource on every tick gives
        (``tests/obs/test_resource_sampler.py`` keeps that loop as the
        oracle), at O(ticks + changes) instead of O(ticks x resources).
        """
        sim = self.sim
        sampled = self._sampled
        clock = SampleClock()
        dirty = set(sampled)  # the first tick reads everything once
        for res, (label, runs) in sampled.items():
            self.metrics.series(label + ".qdepth").sample_from(clock, runs, 1)
            self.metrics.series(label + ".util").sample_from(clock, runs, 2)
            res._watch = dirty
        while sampled:
            tick = clock.tick(sim.now)
            if tick:
                for res in dirty:
                    runs = sampled[res][1]
                    qdepth = res.queue_length
                    util = res.in_use / res.capacity
                    if (not runs or runs[-1][1] != qdepth
                            or runs[-1][2] != util):
                        runs.append((tick, qdepth, util))
                dirty.clear()
            yield sim.timeout(interval)
