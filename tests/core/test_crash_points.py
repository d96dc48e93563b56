"""Crash-point enumeration via ``repro.faults.crashcheck``.

Every workload is swept exhaustively (a crash at each of the victim's
store ops) and its point count is pinned, so a change cannot silently
shorten a workload. Every seeded recovery bug has a row that must be
caught: a checker that can't fail is not a checker.
"""

import json

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

# Victim store ops, hence crash points, per workload.
POINTS = {"mkdir": 61, "checkpoint": 33, "rename": 223,
          "shard_split": 91, "epoch_handoff": 31, "tier_drain": 95,
          "all_on": 149}


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


@pytest.mark.parametrize("name,stride", [("rename", 37)])
def test_bounded_sweep_no_violations(name, stride):
    """A strided sweep checks exactly every ``stride``-th point, from the
    first to the workload's tail, and those points are clean too."""
    report = sweep(name, stride=stride)
    assert report.ok, report.summary()
    assert [r.index for r in report.points] == \
        list(range(1, POINTS[name] + 1, stride))
    assert all(r.fired for r in report.points), \
        "some crash points never fired"
    assert report.audited_commits > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exhaustive_sweep(name):
    report = sweep(name)
    assert report.total_ops == len(report.points) == POINTS[name]
    assert all(r.fired for r in report.points), \
        "some crash points never fired"
    # The stale-epoch audit covers every workload, not only the one that
    # deposes managers: each build is fenced, so each commit was compared
    # against the highest token granted.
    assert report.audited_commits > 0
    assert report.ok, report.summary()


def _serial(name, stride, bug=None):
    """The points a sweep checks, each by a direct ``check_point`` call in
    this process, one after the other."""
    workload = WORKLOADS[name]()
    total, milestones, _ = profile(workload, bug=bug)
    return [check_point(workload, k, milestones, bug=bug)
            for k in range(1, total + 1, stride)]


@pytest.mark.parametrize("name,stride,bug", [
    ("mkdir", 1, None), ("rename", 37, None),
    ("rename", 37, "pretend-fsync")])
def test_a_parallel_sweep_equals_a_serial_one(name, stride, bug):
    """``sweep`` checks its points in a process pool: the report is the
    serial list point for point, flight-recorder dumps included."""
    report = sweep(name, stride=stride, bug=bug)
    serial = _serial(name, stride, bug)
    assert report.points == serial
    if bug is not None:
        assert report.violations == [
            (r.index, v) for r in serial for v in r.violations] != []


# bug: (workload, stride, caught in the fault-free profile?, substring of
# the report's summary)
CAUGHT = {
    # The journal marks ops committed without writing the journal object:
    # mkdir durability breaks before any crash.
    "lost-commit": ("mkdir", 9, True,
                    "profiling stopped early: step 'mkdir:/m0/s0': "
                    "DirectoryRemoved"),
    # A zombie leader commits under a deposed epoch; the FencingRegistry
    # audit flags it with in-path enforcement off.
    "fence-blind": ("epoch_handoff", 16, True,
                    "profiling stopped early: fencing: stale-epoch commit"),
    # Writeback reports done without the PUT: the victim reads its own
    # cache, so only a crash exposes the lost fsync'd bytes.
    "pretend-fsync": ("rename", 37, False, "crash@1: rename content for f0"),
    # A drainer marks its key clean one drain before the key's cold PUT:
    # only a crash that also wipes the hot tier loses it this early.
    "tier-drain-reorder": ("tier_drain", 7, False,
                           "crash@15: durability of completed step "
                           "'fsync:f0' broken"),
}


def test_every_seeded_bug_has_a_must_be_caught_row():
    assert sorted(CAUGHT) == sorted(SEEDED_BUGS)


@pytest.mark.parametrize("bug", sorted(SEEDED_BUGS))
def test_seeded_bug_is_caught(bug):
    workload, stride, in_profile, expected = CAUGHT[bug]
    report = sweep(workload, stride=stride, bug=bug)
    assert not report.ok
    # A bug caught post-crash must survive the fault-free run.
    assert (report.profile_failure is not None) == in_profile
    assert expected in report.summary(), report.summary()


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
