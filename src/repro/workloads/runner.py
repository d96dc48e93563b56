"""Multi-client workload execution with phase barriers.

mdtest and fio run as N closed-loop processes spread over the cluster's
mounts, with a barrier between phases and an fsync/sync of every client at
each phase end ("We call fsync() after each phase, causing all
modifications to be flushed to the underlying storage").
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..obs import Observability
from ..sim.engine import SimGen, SimulationError, Simulator
from ..sim.stats import PhaseRecorder, PhaseResult

__all__ = ["WorkloadRunner", "run_phase"]

ProcFactory = Callable[[], SimGen]


def run_phase(sim: Simulator, procs: Sequence) -> None:
    """Advance the simulation until every process completes (background
    processes — journal threads, lease keepers, MDS rebalancers — keep the
    event heap non-empty forever, so a bare ``run()`` is not usable)."""
    procs = list(procs)
    done = sim.all_of(procs)
    sim.run(until=done)
    if not done.triggered:
        stuck = [getattr(p, "name", repr(p)) for p in procs
                 if not p.triggered]
        raise SimulationError(
            f"phase deadlocked: no more events, {len(stuck)} of "
            f"{len(procs)} processes unfinished: {', '.join(stuck)}")
    if not done.ok:
        raise done.value


class WorkloadRunner:
    """Runs named phases of per-process coroutines and records timings."""

    def __init__(self, sim: Simulator, clients: Optional[List] = None,
                 mounts: Optional[List] = None):
        self.sim = sim
        self.clients = clients or []   # objects with .sync() for phase fsync
        self.mounts = mounts or []     # mounts whose dcache expires per phase
        self.recorder = PhaseRecorder(sim)

    def setup(self, factories: Sequence[ProcFactory]) -> None:
        """Untimed preparation work (directory trees, datasets)."""
        run_phase(self.sim, [self.sim.process(f()) for f in factories])
        self._sync_all()

    def phase(self, name: str, factories: Sequence[ProcFactory],
              ops: int = 0, nbytes: int = 0) -> PhaseResult:
        """Run one timed phase; returns its result."""
        for mount in self.mounts:
            drop = getattr(mount, "invalidate_dcache", None)
            if drop is not None:
                drop()
        tracer = Observability.of(self.sim).tracer
        if tracer is not None:
            # Spans opened during this phase carry its name, which is what
            # the latency-attribution report groups by.
            tracer.phase = name
        self.recorder.begin(name)
        procs = [self.sim.process(f(), name=f"{name}[{i}]")
                 for i, f in enumerate(factories)]
        try:
            run_phase(self.sim, procs)
            self._sync_all()
        finally:
            if tracer is not None:
                tracer.phase = ""
        self.recorder.count(ops, nbytes)
        return self.recorder.end()

    def _sync_all(self) -> None:
        syncs = []
        for client in self.clients:
            sync = getattr(client, "sync", None)
            if sync is not None:
                syncs.append(self.sim.process(sync()))
        if syncs:
            run_phase(self.sim, syncs)
