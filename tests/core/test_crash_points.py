"""Crash-point enumeration via ``repro.faults.crashcheck``.

Tier-1 runs a *bounded* sweep (strided crash points) over every
workload — fast, but still crossing every phase of each one. The
exhaustive rename sweep (every one of the ~220 store-op crash indices,
the headline acceptance criterion) is gated behind ``REPRO_SLOW=1``.

Two tests seed deliberate recovery bugs and assert the checker CATCHES
them — a checker that can't fail is not a checker.
"""

import json
import os

import pytest

from repro.faults.crashcheck import (
    SEEDED_BUGS,
    STEP_BOUND_S,
    WORKLOADS,
    Step,
    _run_step,
    _StepWedged,
    check_point,
    main as crashcheck_main,
    profile,
    sweep,
)

SLOW = bool(os.environ.get("REPRO_SLOW"))

# Strides chosen so each tier-1 sweep checks ~7 points spread across the
# whole workload (including the recovery-heavy tail).
BOUNDED = [("mkdir", 9), ("rename", 37), ("checkpoint", 5), ("pack", 11),
           ("shard_split", 16), ("epoch_handoff", 5), ("tier_drain", 16),
           ("qos_backlog", 13)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fault_free_profile_is_clean(name):
    """Profiling (armed plan, crash never fires) must complete every step
    and count a stable, nonzero number of victim store ops."""
    total, milestones, failure = profile(WORKLOADS[name]())
    assert failure is None, failure
    assert total > 0
    assert milestones == sorted(milestones)
    assert milestones[-1] <= total
    # Determinism: a second profile counts the identical op stream.
    total2, milestones2, _ = profile(WORKLOADS[name]())
    assert (total2, milestones2) == (total, milestones)


def test_run_step_steps_events_due_now_with_nothing_on_the_heap():
    """A step whose remaining events are all due *now* sit in the ready
    deque, not on the heap: it must be stepped to the end, not reported
    wedged (in the sweeps a lease keeper's timer is always on the heap,
    which hid a loop that only looked there). A step that really outlives
    the bound still is."""
    from types import SimpleNamespace

    from repro.sim import Simulator

    sim = Simulator()
    cluster = SimpleNamespace(client=lambda index: None)
    ran = []

    def all_due_now(_client):
        for _ in range(3):
            yield sim.timeout(0)
        ran.append(sim.now)

    _run_step(sim, cluster, Step("due-now", gen=all_due_now))
    assert ran == [0.0]

    def too_long(_client):
        yield sim.timeout(2 * STEP_BOUND_S)

    with pytest.raises(_StepWedged):
        _run_step(sim, cluster, Step("wedged", gen=too_long))
    assert sim.now == 0.0


def test_rename_workload_has_hundreds_of_crash_points():
    total, _, failure = profile(WORKLOADS["rename"]())
    assert failure is None
    assert total >= 200, total


@pytest.mark.parametrize("name,stride", BOUNDED)
def test_bounded_sweep_no_violations(name, stride):
    report = sweep(name, stride=stride)
    assert report.ok, report.summary()
    assert report.points, "sweep checked no crash points"
    assert all(r.fired for r in report.points), \
        "some crash points never fired"
    # The stale-epoch audit covers every workload, not only the one that
    # deposes managers: each build is fenced, so each commit was compared
    # against the highest token granted (report.ok: none was below it).
    assert report.audited_commits > 0


@pytest.mark.skipif(not SLOW, reason="exhaustive sweep; set REPRO_SLOW=1")
def test_full_rename_sweep_every_store_op():
    """Acceptance criterion: enumerate EVERY store-op crash index of the
    rename-heavy (cross-directory 2PC) workload with zero violations."""
    report = sweep("rename", stride=1)
    assert report.ok, report.summary()
    assert len(report.points) >= 200, len(report.points)
    assert all(r.fired for r in report.points)


@pytest.mark.skipif(not SLOW, reason="exhaustive sweep; set REPRO_SLOW=1")
@pytest.mark.parametrize("name", ["mkdir", "checkpoint", "pack",
                                  "shard_split", "epoch_handoff",
                                  "tier_drain"])
def test_full_sweep_other_workloads(name):
    report = sweep(name, stride=1)
    assert report.ok, report.summary()


def test_seeded_lost_commit_bug_is_caught():
    """A journal manager that marks ops committed without writing the
    journal object breaks mkdir durability — caught in the *fault-free*
    profiling run (the strongest possible finding)."""
    assert "lost-commit" in SEEDED_BUGS
    report = sweep("mkdir", stride=9, bug="lost-commit")
    assert not report.ok
    assert report.profile_failure is not None


def test_seeded_pretend_fsync_bug_is_caught():
    """A cache that reports writeback done without the PUT survives the
    fault-free run (data still served from cache) but loses fsync'd file
    content across a crash — caught by the durability milestones and the
    rename workload's content invariants."""
    assert "pretend-fsync" in SEEDED_BUGS
    report = sweep("rename", stride=37, bug="pretend-fsync")
    assert not report.ok
    assert report.profile_failure is None, \
        "bug should survive the fault-free run and only bite post-crash"
    assert report.violations
    text = "\n".join(v for _, v in report.violations)
    assert "durability" in text or "invariant" in text or "holds" in text


def test_seeded_fence_blind_bug_is_caught():
    """A zombie leader — fencing enforcement off plus an inflated lease
    belief — keeps committing under a deposed authority's epoch after the
    epoch_handoff workload fails every manager range over. The
    FencingRegistry audit (independent of the disabled in-path check)
    must flag the stale-epoch commits already in the fault-free run."""
    assert "fence-blind" in SEEDED_BUGS
    report = sweep("epoch_handoff", stride=16, bug="fence-blind")
    assert not report.ok
    assert report.profile_failure is not None
    assert "stale-epoch commit" in report.profile_failure


def test_seeded_tier_drain_reorder_bug_is_caught():
    """A drain that reports durability one batch ahead of the cold PUTs
    survives the fault-free run (reads still hit the hot tier) but loses
    fsync'd data when a crash wipes the hot tier with the held batch not
    yet in cold — caught by the tier_drain durability milestones."""
    assert "tier-drain-reorder" in SEEDED_BUGS
    report = sweep("tier_drain", stride=7, bug="tier-drain-reorder")
    assert not report.ok
    assert report.profile_failure is None, \
        "bug should survive the fault-free run and only bite post-crash"
    assert report.violations


def test_cli_exit_codes(tmp_path):
    """The module CLI returns 0 on a clean sweep and 1 when the checker
    finds violations (here: under a seeded bug), and writes the failing
    points' flight-recorder dumps where ``--flight`` says."""
    assert crashcheck_main(["--workload", "checkpoint", "--stride", "5"]) == 0
    flight = tmp_path / "flight.json"
    assert crashcheck_main(["--workload", "rename", "--stride", "37",
                            "--bug", "pretend-fsync",
                            "--flight", str(flight)]) == 1
    dump = json.loads(flight.read_text())
    assert dump["workload"] == "rename"
    assert dump["points"] and all(p["flight"] for p in dump["points"])
