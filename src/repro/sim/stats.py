"""Measurement helpers: phase timing, throughput, scheduler counters.

Benchmarks report *simulated* time; these helpers turn raw completion counts
into the ops/sec and MB/s figures the paper's tables and plots use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .engine import Simulator

__all__ = ["PhaseResult", "PhaseRecorder", "kernel_counters"]


def kernel_counters(sim: Simulator) -> Dict[str, int]:
    """Scheduler-internals snapshot for microbenchmarks and perf triage.

    ``loop_events`` counts events dispatched through the run loop,
    ``inline_events`` those consumed by the immediate resume without a
    loop round-trip — a grant the hold primitive proved unobservable and
    did not create counts as one (DESIGN.md §10) — and ``heap_pushes`` the
    timed events that actually paid a heapq push — the three numbers that
    explain where a workload's kernel time goes.
    """
    return {
        "loop_events": sim._n_steps,
        "inline_events": sim._n_inline,
        "heap_pushes": sim._seq,
    }


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
    """Collects the phase results of a benchmark run."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.phases: List[PhaseResult] = []
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
