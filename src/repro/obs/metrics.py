"""Unified metrics: counters, gauges, histograms, and time series.

One :class:`MetricsRegistry` per simulation (attached lazily through
:class:`repro.obs.Observability`) replaces the ad-hoc ``stats`` dicts that
used to be sprinkled through the cache and journal. Components pre-bind
their metric objects at construction time, so the hot-path cost of a count
is one attribute increment — no dict lookups, no string formatting.

Histograms use fixed log-spaced buckets (so percentile queries are O(#
buckets), independent of sample count) while tracking exact count / sum /
min / max, which keeps means exact and percentiles monotone.

Everything here is measured in *simulated* units; nothing reads wall-clock
time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, List, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "SampleClock", "Series",
           "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> int:
        return self.value


class Gauge:
    """A value that goes up and down; tracks its high-water mark."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.max_value = 0

    def set(self, v) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v

    def add(self, delta) -> None:
        self.set(self.value + delta)

    def track(self, v) -> None:
        """Record an observation for the high-water mark only."""
        if v > self.max_value:
            self.max_value = v

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "max": self.max_value}


def _log_bounds(lo: float, hi: float, per_decade: int) -> List[float]:
    n = int(math.ceil((math.log10(hi) - math.log10(lo)) * per_decade)) + 1
    return [lo * 10 ** (i / per_decade) for i in range(n)]


class Histogram:
    """Fixed log-spaced buckets with exact count/sum/min/max.

    The default range (1 ns .. 10 ks) covers every simulated latency this
    repository produces; observations outside it clamp to the edge buckets.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "_counts")

    LO = 1e-9
    HI = 1e4
    PER_DECADE = 20
    BOUNDS = _log_bounds(LO, HI, PER_DECADE)  # upper edge of each bucket
    _LOG_LO = math.log10(LO)

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0
        self._counts = [0] * len(Histogram.BOUNDS)

    def _index(self, v: float) -> int:
        if v <= Histogram.LO:
            return 0
        i = int((math.log10(v) - Histogram._LOG_LO) * Histogram.PER_DECADE)
        return min(max(i, 0), len(self._counts) - 1)

    def observe(self, v: float) -> None:
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        # _index() inlined: observe is on the per-root-op hot path of the
        # always-on slow-op log, where the method-call overhead shows.
        if v <= 1e-9:  # Histogram.LO
            i = 0
        else:
            i = int((math.log10(v) - Histogram._LOG_LO)
                    * Histogram.PER_DECADE)
            n = len(self._counts) - 1
            if i > n:
                i = n
            elif i < 0:
                i = 0
        self._counts[i] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile, ``q`` in ``[0, 1]``.

        O(#buckets) scan of the fixed log-spaced bucket counts — no raw
        series is kept or consulted, so the cost is independent of how
        many values were observed. Exact at both edges: ``quantile(0)``
        is the tracked min and ``quantile(1)`` the tracked max, even when
        observations clamped into the edge buckets; interior quantiles
        interpolate within their bucket and are clamped to ``[min, max]``
        (which keeps the result monotone in ``q``)."""
        if not self.count:
            return 0.0
        if q >= 1.0:
            # Exact even when the max clamped into the top bucket.
            return self.max
        if q <= 0.0:
            return self.min
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self._counts):
            if not n:
                continue
            if cum + n >= rank:
                lo = Histogram.BOUNDS[i - 1] if i else 0.0
                hi = Histogram.BOUNDS[i]
                frac = (rank - cum) / n
                v = lo + (hi - lo) * max(0.0, min(1.0, frac))
                return max(self.min, min(self.max, v))
            cum += n
        return self.max

    def percentile(self, q: float) -> float:
        """Interpolated percentile (0..100); exact at the min/max edges."""
        return self.quantile(q / 100.0)

    def quantile_upper(self, q: float) -> float:
        """Conservative quantile upper bound for trigger comparisons.

        The quantile is only known to bucket resolution, so this returns
        a boundary strictly above everything in the rank's bucket *plus
        one bucket of slack* (~12% with the default 20-per-decade
        spacing): a strict ``>`` test against it cannot fire on bucket
        quantization or float jitter at a bucket edge, while genuinely
        distant tail values still clear it easily. This is what makes it
        the right trigger for the slow-op log's rolling-p99 rule —
        uniform latencies never self-log. Returns ``inf`` when the rank
        lands at the top of the bucket range (the static threshold still
        applies there)."""
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self._counts):
            if not n:
                continue
            cum += n
            if cum >= rank:
                # _index() floors, so bucket i spans [BOUNDS[i],
                # BOUNDS[i+1]); +1 more bucket is the jitter slack.
                j = i + 2
                if j < len(Histogram.BOUNDS):
                    return Histogram.BOUNDS[j]
                return math.inf
        return math.inf

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class SampleClock:
    """The tick times of one periodic sampler, decimated to a bounded sketch.

    Everything sampled on the same ticks shares one clock, so a tick costs
    one call here however many series follow it. Once ``Series.MAX_POINTS``
    ticks are kept, every other one is dropped and the stride doubles:
    an arbitrarily long run keeps an evenly spread ~thousand-point sketch.
    """

    __slots__ = ("times", "ticks", "n", "_stride")

    def __init__(self):
        self.times: List[float] = []   # time of each kept tick
        self.ticks: List[int] = []     # its 1-based index, ascending
        self.n = 0                     # ticks counted so far
        self._stride = 1

    def tick(self, t: float) -> int:
        """Count one tick at time ``t``; returns its index if the sketch
        keeps it, else 0."""
        n = self.n = self.n + 1
        if n % self._stride:
            return 0
        self.times.append(t)
        self.ticks.append(n)
        if len(self.times) >= Series.MAX_POINTS:
            self.times = self.times[::2]
            self.ticks = self.ticks[::2]
            self._stride *= 2
        return n


class Series:
    """A decimating time series of ``(t, value)`` samples.

    Stored as *runs* over a :class:`SampleClock`: ``(first_tick, value,
    ...)`` tuples, ascending, each holding from its tick until the next
    run's. ``times`` / ``values`` expand the runs at the ticks the clock
    still keeps, so an unchanged stretch costs one tuple, not one point
    per tick. Runs are only ever recorded at kept ticks; decimation can
    strand some at ticks dropped later (expansion skips them), so a run
    list grows by at most ``MAX_POINTS / 2`` tuples each time the run's
    length doubles.

    A series built by hand owns a private clock and takes points through
    :meth:`add`; the resource sampler instead points many series at one
    shared clock and at per-resource run lists (:meth:`sample_from`).
    """

    __slots__ = ("name", "_clock", "_runs", "_col")

    MAX_POINTS = 2048

    def __init__(self, name: str):
        self.name = name
        self._clock = SampleClock()
        self._runs: List[tuple] = []
        self._col = 1

    def sample_from(self, clock: SampleClock, runs: List[tuple],
                    col: int) -> None:
        """Read column ``col`` of ``runs``, a run list that someone else
        appends to on the ticks of ``clock``."""
        self._clock = clock
        self._runs = runs
        self._col = col

    def add(self, t: float, v: float) -> None:
        n = self._clock.tick(t)
        if n:
            self._runs.append((n, v))

    @property
    def times(self) -> List[float]:
        return self._clock.times

    @property
    def values(self) -> List[float]:
        ticks, runs, col = self._clock.ticks, self._runs, self._col
        out: List[float] = []
        lo = 0
        for run, nxt in zip(runs, runs[1:]):
            hi = bisect_left(ticks, nxt[0], lo)
            out += [run[col]] * (hi - lo)
            lo = hi
        if runs:
            out += [runs[-1][col]] * (len(ticks) - lo)
        return out

    def to_dict(self) -> Dict[str, List[float]]:
        return {"t": self.times, "v": self.values}


class _Scope:
    """A prefixed view onto a registry (per-component namespacing)."""

    __slots__ = ("_reg", "_prefix")

    def __init__(self, reg: "MetricsRegistry", prefix: str):
        self._reg = reg
        self._prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._reg.counter(self._prefix + name)

    def gauge(self, name: str) -> Gauge:
        return self._reg.gauge(self._prefix + name)

    def histogram(self, name: str) -> Histogram:
        return self._reg.histogram(self._prefix + name)

    def series(self, name: str) -> Series:
        return self._reg.series(self._prefix + name)


class MetricsRegistry:
    """Name-addressed metric store; metrics are created on first use."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        m = self._metrics.get(name)
        if m is None:
            m = cls(name)
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(m).__name__}")
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def series(self, name: str) -> Series:
        return self._get(name, Series)

    def scope(self, prefix: str) -> _Scope:
        """A view that prefixes every metric name with ``prefix + '.'``."""
        return _Scope(self, prefix + "." if prefix else "")

    def get(self, name: str):
        return self._metrics.get(name)

    def items(self):
        """``(name, metric)`` pairs, insertion-ordered."""
        return self._metrics.items()

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-safe snapshot grouped by metric type."""
        out: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {}, "series": {},
        }
        groups: List[Tuple[type, str]] = [
            (Counter, "counters"), (Gauge, "gauges"),
            (Histogram, "histograms"), (Series, "series"),
        ]
        for name in sorted(self._metrics):
            m = self._metrics[name]
            for cls, key in groups:
                if isinstance(m, cls):
                    out[key][name] = m.to_dict()
                    break
        return out
