"""Measurement helpers: operation counters, phase timing, throughput.

Benchmarks report *simulated* time; these helpers turn raw completion counts
into the ops/sec and MB/s figures the paper's tables and plots use.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs.metrics import Histogram
from .engine import Simulator

__all__ = ["OpStats", "PhaseResult", "PhaseRecorder", "BandwidthMeter",
           "kernel_counters"]


def kernel_counters(sim: Simulator) -> Dict[str, int]:
    """Scheduler-internals snapshot for microbenchmarks and perf triage.

    ``loop_events`` counts events dispatched through the run loop,
    ``inline_events`` those consumed by the immediate resume without a
    loop round-trip (DESIGN.md §10), and ``heap_pushes`` the
    timed events that actually paid a heapq push — the three numbers that
    explain where a workload's kernel time goes.
    """
    return {
        "loop_events": sim._n_steps,
        "inline_events": sim._n_inline,
        "heap_pushes": sim._seq,
    }


class OpStats:
    """Per-operation-type latency/count accumulator.

    Backed by :class:`repro.obs.Histogram` so the unified metrics layer is
    the single implementation of latency accumulation; this class keeps the
    historical attribute names (``count`` / ``total_time`` / ``max_time``)
    and adds percentile access through ``hist``.
    """

    __slots__ = ("hist",)

    def __init__(self):
        self.hist = Histogram("")

    def record(self, elapsed: float) -> None:
        self.hist.observe(elapsed)

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def total_time(self) -> float:
        return self.hist.sum

    @property
    def max_time(self) -> float:
        return self.hist.max

    @property
    def mean_time(self) -> float:
        return self.hist.mean


@dataclass
class PhaseResult:
    """Outcome of one benchmark phase (e.g. the mdtest CREATE phase)."""

    name: str
    start: float
    end: float
    ops: int
    bytes_moved: int = 0
    errors: int = 0

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def ops_per_sec(self) -> float:
        # A zero-elapsed phase (nothing simulated) reports 0.0, not inf —
        # inf breaks strict-JSON serialization of benchmark results.
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def bandwidth_mbps(self) -> float:
        """MB/s (decimal megabytes, matching fio's reporting)."""
        if self.elapsed <= 0:
            return 0.0
        return self.bytes_moved / self.elapsed / 1e6


class PhaseRecorder:
    """Collects phase results and per-op stats for a benchmark run."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.phases: List[PhaseResult] = []
        self.ops: Dict[str, OpStats] = defaultdict(OpStats)
        self._open: Optional[dict] = None

    def begin(self, name: str) -> None:
        if self._open is not None:
            raise RuntimeError(f"phase {self._open['name']!r} still open")
        self._open = {"name": name, "start": self.sim.now, "ops": 0,
                      "bytes": 0, "errors": 0}

    def count(self, n: int = 1, nbytes: int = 0) -> None:
        assert self._open is not None, "no phase open"
        self._open["ops"] += n
        self._open["bytes"] += nbytes

    def error(self, n: int = 1) -> None:
        assert self._open is not None, "no phase open"
        self._open["errors"] += n

    def end(self) -> PhaseResult:
        assert self._open is not None, "no phase open"
        p = self._open
        self._open = None
        result = PhaseResult(
            name=p["name"], start=p["start"], end=self.sim.now,
            ops=p["ops"], bytes_moved=p["bytes"], errors=p["errors"],
        )
        self.phases.append(result)
        return result

    def phase(self, name: str) -> Optional[PhaseResult]:
        for p in self.phases:
            if p.name == name:
                return p
        return None


@dataclass
class BandwidthMeter:
    """Tracks bytes moved through a component over simulated time."""

    sim: Simulator
    bytes_total: int = 0
    _t0: float = field(default=0.0)

    def __post_init__(self) -> None:
        self._t0 = self.sim.now

    def add(self, nbytes: int) -> None:
        self.bytes_total += nbytes

    @property
    def mbps(self) -> float:
        dt = self.sim.now - self._t0
        return self.bytes_total / dt / 1e6 if dt > 0 else 0.0
