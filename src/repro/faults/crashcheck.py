"""Exhaustive crash-consistency checking for the journal/lease/2PC stack.

The method is the classic "crash at every store operation" sweep, run
over the workloads of :mod:`repro.faults.crash_workloads`. One prefix
runner (:func:`_run`) serves both passes:

1. **Profile** — run the workload on a two-client cluster with an armed,
   crash-free :class:`~repro.faults.plan.FaultPlan` under the store,
   counting the victim client's store ops. Its count after each step is
   that step's *durability milestone*.
2. **Sweep** — for every index ``k`` in ``1..N`` (or a strided subset),
   rebuild and re-run with ``crash_at(victim, k)``: the victim dies
   *instead of* executing its k-th store op, and on a tiered store the hot
   tier dies with it. Execution is deterministic, so the run matches the
   profile up to the crash.
3. **Check** — the survivor waits out lease fencing, walks the namespace
   (each lease acquisition replays that directory's journal: the
   production recovery path) and replays residual journals. Then
   ``fsck(after_crash=True)`` must be clean, every step that returned
   before the crash must keep its durability promise, the workload's
   invariants must hold, no 2PC decision record may have changed (audited
   by the FaultPlan), and no commit may have landed under a stale epoch
   (audited by the lease service's FencingRegistry).

Run it from the command line::

    PYTHONPATH=src python -m repro.faults.crashcheck --workload rename --stride 7

``--bug`` seeds one of :data:`~repro.faults.seeded_bugs.SEEDED_BUGS` to
demonstrate the checker catching it.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..core import build_arkfs
from ..core.fsck import fsck
from ..core.params import DEFAULT_PARAMS
from ..core.recovery import recover_directory
from ..objectstore.tiered import TieredObjectStore
from ..obs import Observability
from ..posix import ROOT_CREDS
from ..posix.vfs import SyncFS
from ..sim.engine import Simulator
from .crash_workloads import WORKLOADS, Step, Workload
from .plan import FaultPlan
from .seeded_bugs import SEEDED_BUGS

__all__ = ["Step", "Workload", "WORKLOADS", "SEEDED_BUGS",
           "CrashPointResult", "CrashCheckReport",
           "profile", "check_point", "sweep", "main"]

# A healthy workload step finishes in well under a sim-minute on the
# functional store; a step still running after this long has wedged
# (e.g. a post-crash coroutine spinning on a retry loop).
STEP_BOUND_S = 120.0
FENCE_MARGIN_S = 1.0


@dataclass
class CrashPointResult:
    index: int                 # crash_at_op (1-based victim store-op index)
    fired: bool                # did the crash actually trigger?
    completed_steps: int
    violations: List[str] = field(default_factory=list)
    audited_commits: int = 0   # journal commits the fencing auditor saw
    # Flight-recorder dump captured when violations were found (the last
    # ~512 structured events before/around the failure), else None.
    flight: Optional[dict] = None


@dataclass
class CrashCheckReport:
    workload: str
    total_ops: int             # victim store ops in the fault-free run
    points: List[CrashPointResult] = field(default_factory=list)
    profile_failure: Optional[str] = None

    @property
    def violations(self) -> List[Tuple[int, str]]:
        return [(r.index, v) for r in self.points for v in r.violations]

    @property
    def audited_commits(self) -> int:
        return sum(r.audited_commits for r in self.points)

    @property
    def ok(self) -> bool:
        # A step failing in the *fault-free* profiling run is the strongest
        # possible finding: the workload broke before any crash was injected.
        return not self.violations and self.profile_failure is None

    def summary(self) -> str:
        status = ("OK" if self.ok
                  else f"{len(self.violations)} VIOLATIONS")
        lines = [f"crashcheck[{self.workload}]: {status} — "
                 f"{len(self.points)} crash points checked "
                 f"of {self.total_ops} victim store ops, "
                 f"{self.audited_commits} journal commits fencing-audited"]
        if self.profile_failure:
            lines.append(f"  profiling stopped early: {self.profile_failure}")
        for idx, v in self.violations:
            lines.append(f"  crash@{idx}: {v}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------

class _StepWedged(Exception):
    """A step made no progress within its sim-time bound."""


def _run_step(sim: Simulator, cluster, step: Step) -> None:
    """Run one step with a sim-time bound (a crashed client's unwinding
    coroutines can otherwise spin on retry loops forever)."""
    if step.act is not None:
        step.act(cluster)
    if step.gen is None:
        sim.run(until=sim.now + step.advance)
        return
    client = cluster.client(1 if step.survivor else 0)
    deadline = sim.now + STEP_BOUND_S
    proc = sim.process(step.gen(client), name=f"step:{step.name}")
    while not proc.triggered and sim.peek() <= deadline:
        sim.step()
    if not proc.triggered:
        raise _StepWedged(
            f"step {step.name!r} did not finish within {STEP_BOUND_S}s")
    if not proc._ok:
        raise proc._value


def _run(workload: Workload, bug: Optional[str], crash_at: Optional[int]):
    """Build the cluster, run the setup unarmed, arm the plan and run the
    steps until one fails or the victim dies.

    ``crash_at=None`` counts the victim's store ops and never crashes it.
    Otherwise the victim dies instead of executing its ``crash_at``-th
    store op, and on a tiered store the hot tier is lost with it: node RAM
    and fast-tier media go together in the modelled failure. Returns
    ``(sim, cluster, plan, milestones, failure)``: the victim's op count
    after each completed step, and what failed with no crash fired."""
    sim = Simulator()
    # A failing crash point carries the recent event ring, so it is
    # diagnosable from the report alone; recording never perturbs outcomes.
    Observability.of(sim).enable_recorder()
    plan = FaultPlan()
    plan.disarm()
    cluster = build_arkfs(sim, n_clients=2, functional=True, seed=0,
                          params=workload.params or DEFAULT_PARAMS,
                          faults=plan,
                          n_lease_managers=workload.n_lease_managers)
    if bug is not None:
        SEEDED_BUGS[bug](cluster)
    victim, store = cluster.client(0), cluster.store

    def die():
        victim.crash()
        if isinstance(store, TieredObjectStore):
            store.lose_hot()

    # With crash_at=None the plan counts the victim's ops and never fires.
    plan.crash_at(victim.node.name, crash_at, handler=die)
    milestones: List[int] = []
    try:
        sim.run_process(workload.setup(victim),
                        name=f"{workload.name}.setup")
    except Exception as exc:  # noqa: BLE001 - reported, not masked
        return sim, cluster, plan, milestones, f"setup: {exc!r}"
    plan.arm()
    for step in workload.steps:
        try:
            _run_step(sim, cluster, step)
        except Exception as exc:  # noqa: BLE001 - reported, not masked
            if plan.crashed:
                break  # the injected crash, or its downstream wreckage
            return (sim, cluster, plan, milestones,
                    f"step {step.name!r}: {exc!r}")
        if plan.crashed:
            break  # fired in a background thread during this step
        milestones.append(plan.victim_ops)
    return sim, cluster, plan, milestones, None


def _breaches(cluster) -> List[str]:
    """Every stale-epoch commit the fencing auditor recorded.

    The :class:`~repro.core.lease.FencingRegistry` audit is independent of
    client-side enforcement (it compares every commit that actually landed
    against the highest token ever granted), so it catches zombie leaders
    even when a seeded bug disables the in-path check."""
    return [f"fencing: {b}"
            for b in cluster.lease_service.fencing.drain_breaches()]


def profile(workload: Workload,
            bug: Optional[str] = None) -> Tuple[int, List[int], Optional[str]]:
    """Fault-free reference run. Returns ``(total victim ops, per-step
    op-count milestones, failure)`` — ``failure`` is set when a step failed
    even without any fault injected (itself a finding; the sweep still
    covers the ops up to that point)."""
    _, cluster, plan, milestones, failure = _run(workload, bug, None)
    if failure is None:
        # Even the fault-free run is audited: a zombie leader committing
        # under a stale epoch is a finding with no crash injected at all.
        breaches = _breaches(cluster)
        if breaches:
            failure = breaches[0] if len(breaches) == 1 else \
                f"{breaches[0]} (+{len(breaches) - 1} more)"
    return plan.victim_ops, milestones, failure


def check_point(workload: Workload, k: int, milestones: List[int],
                bug: Optional[str] = None) -> CrashPointResult:
    """Crash the victim at its k-th store op, recover, check invariants."""
    sim, cluster, plan, completed, failure = _run(workload, bug, k)
    violations = ([] if failure is None
                  else [f"failed without a crash: {failure}"])
    survivor = cluster.client(1)

    if plan.crashed:
        # Let the victim's leases expire so the survivor can take over.
        sim.run(until=sim.now + 2 * cluster.params.lease_period
                + FENCE_MARGIN_S)

    fs = SyncFS(survivor, ROOT_CREDS)

    # Production recovery path: acquiring each directory's lease replays
    # its journal. Walking the tree also proves every file is readable.
    try:
        _walk(fs, "/")
    except Exception as exc:  # noqa: BLE001
        violations.append(f"survivor namespace walk failed: {exc!r}")

    # Journals of directories the walk cannot reach (none in the shipped
    # workloads, but a cheap safety net for custom ones).
    try:
        _recover_residual(sim, cluster, survivor)
    except Exception as exc:  # noqa: BLE001
        violations.append(f"residual journal replay failed: {exc!r}")

    # Quiesce the survivor so fsck sees a settled store.
    sim.run_process(survivor.sync(), name="survivor.sync")
    sim.run(until=sim.now + 3.0)

    report = sim.run_process(
        fsck(cluster.prt, src=survivor.node, after_crash=True), name="fsck")
    violations.extend(f"fsck: {e}" for e in report.errors)

    # Durability milestones: a step that returned before the crash (its
    # last counted op <= k-1, i.e. k > milestone) promised durability.
    for step, m in zip(workload.steps, milestones):
        if step.durable is None or k <= m:
            continue
        try:
            step.durable(fs)
        except AssertionError as exc:
            violations.append(
                f"durability of completed step {step.name!r} broken: {exc}")
        except Exception as exc:  # noqa: BLE001
            violations.append(
                f"durability check for {step.name!r} errored: {exc!r}")

    if workload.invariants is not None:
        try:
            workload.invariants(fs, violations)
        except Exception as exc:  # noqa: BLE001
            violations.append(f"invariant check errored: {exc!r}")

    violations.extend(plan.violations)
    violations.extend(_breaches(cluster))
    flight = None
    if violations:
        rec = sim._recorder
        if rec is not None:
            flight = rec.to_dict()
    return CrashPointResult(
        index=k, fired=plan.crashed, completed_steps=len(completed),
        violations=violations, flight=flight,
        audited_commits=cluster.lease_service.fencing.commits)


def _walk(fs: SyncFS, path: str) -> None:
    for name in sorted(fs.readdir(path)):
        sub = (path.rstrip("/") + "/" + name)
        st = fs.lstat(sub)
        if st.is_dir:
            _walk(fs, sub)
        elif st.is_file:
            fs.read_file(sub)


def _recover_residual(sim: Simulator, cluster, survivor) -> None:
    keys = sim.run_process(
        cluster.store.list("j", src=survivor.node), name="scan-j")
    dir_inos = {int(key[1:].partition("/")[0], 16) for key in keys}
    for dir_ino in sorted(dir_inos):
        sim.run_process(
            recover_directory(cluster.prt, dir_ino, src=survivor.node),
            name=f"residual-recover:{dir_ino:x}")


def sweep(workload_name: str, stride: int = 1, bug: Optional[str] = None,
          progress: Optional[Callable[[str], None]] = None) -> CrashCheckReport:
    """Profile the workload, then check every ``stride``-th of its crash
    points. ``stride=1`` is the exhaustive sweep."""
    workload = WORKLOADS[workload_name]()
    total, milestones, failure = profile(workload, bug=bug)
    report = CrashCheckReport(workload=workload_name, total_ops=total,
                              profile_failure=failure)
    points = range(1, total + 1, max(1, stride))
    for i, k in enumerate(points):
        if progress is not None and i % 25 == 0:
            progress(f"crash point {k}/{total} "
                     f"({i + 1}/{len(points)} checked)")
        report.points.append(check_point(workload, k, milestones, bug=bug))
    return report


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.faults.crashcheck",
        description="Exhaustive crash-consistency sweep over ArkFS "
                    "store operations.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    default="rename")
    ap.add_argument("--stride", type=int, default=1,
                    help="check every Nth crash point (default: all)")
    ap.add_argument("--bug", choices=sorted(SEEDED_BUGS), default=None,
                    help="seed a deliberate recovery bug (the sweep "
                         "should then FAIL)")
    ap.add_argument("--flight", default="crashcheck_flight.json",
                    metavar="PATH",
                    help="where to write flight-recorder dumps of failing "
                         "crash points (default: %(default)s)")
    args = ap.parse_args(argv)
    report = sweep(args.workload, stride=args.stride, bug=args.bug,
                   progress=lambda msg: print(f"  {msg}"))
    print(report.summary())
    if not report.ok and args.flight:
        dumps = [{"crash_at_op": r.index, "flight": r.flight}
                 for r in report.points if r.violations]
        with open(args.flight, "w") as f:
            f.write(json.dumps(
                {"workload": report.workload, "points": dumps},
                allow_nan=False))
        print(f"  flight-recorder dumps of {len(dumps)} failing point(s) "
              f"written to {args.flight}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
