"""A failed operation leaves no reference cycle behind.

An error travels up through processes: a handler process fails, and the
process waiting on it re-raises. If a stored exception's traceback keeps a
frame that keeps the exception or its process, the pair is a cycle that
only the cyclic collector frees, and every failed lookup in a long run
adds to the collector's work. Each case runs with the collector off and
the cluster still referenced, then asks the collector what it finds.

``Simulator.run`` pauses the collector for the whole run, so any cycle a
run makes is held until the run ends: a mixed run must make none at all.
"""

import gc
import types

import pytest

from repro.baselines import build_cephfs
from repro.core.fs import build_arkfs
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.posix import ROOT_CREDS, NotFound, OpenFlags, SyncFS
from repro.sim import Simulator


def _enoent(sim, gen):
    """Run ``gen`` in a process that expects ENOENT: the process itself
    succeeds, so nothing of the error outlives the run."""
    def op():
        try:
            yield from gen
        except NotFound:
            return "ENOENT"
        return "found"

    return sim.run_process(op())


def _arkfs_forwarded_negative_lookup():
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2)
    fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
    fs0.mkdir("/d")
    fs0.write_file("/d/f", b"x")          # client 0 leads /d
    client = cluster.client(1)
    assert _enoent(sim, client.open(ROOT_CREDS, "/d/missing",
                                    OpenFlags.O_RDONLY)) == "ENOENT"
    return cluster


def _cephfs_enoent_through_the_mds():
    sim = Simulator()
    cluster = build_cephfs(sim, n_clients=1)
    client = cluster.client(0)
    assert _enoent(sim, client.stat(ROOT_CREDS, "/missing")) == "ENOENT"
    return cluster


def _unreachable_after(case):
    """Run ``case`` with the collector off, then collect while the cluster
    it returns is still referenced: the type names of what was found."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)      # keep what it finds, to name it
    try:
        cluster = case()
        gc.collect()
        assert cluster is not None
        return [(type(o).__name__, o) for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("case", [_arkfs_forwarded_negative_lookup,
                                  _cephfs_enoent_through_the_mds],
                         ids=["arkfs_forwarded", "cephfs_mds"])
def test_a_failed_lookup_leaves_no_cyclic_garbage(case):
    found = [name for name, o in _unreachable_after(case)
             if isinstance(o, (BaseException, types.TracebackType,
                               types.FrameType))]
    assert found == [], sorted(set(found))


def _mixed_ops(sim, cluster):
    """Create, write, stat, a lookup from the other client, an ENOENT,
    unlink and rmdir, through client 0 and client 1 of ``cluster``."""
    fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
    fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
    fs0.mkdir("/d")
    fs0.write_file("/d/f", b"x" * 5000, do_fsync=True)
    assert fs0.stat("/d/f").st_size == 5000
    assert fs1.stat("/d/f").st_size == 5000      # forwarded to client 0
    assert _enoent(sim, cluster.client(1).stat(ROOT_CREDS,
                                               "/d/missing")) == "ENOENT"
    fs1.unlink("/d/f")
    fs0.rmdir("/d")
    sim.run(until=sim.now + 3)                   # checkpoints drain


def _arkfs_mixed_run_with_a_retried_put():
    sim = Simulator()
    plan = FaultPlan()
    cluster = build_arkfs(sim, n_clients=2, faults=plan)
    fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
    fs0.write_file("/g", b"")
    ino = fs0.stat("/g").st_ino
    plan.flaky_key(cluster.prt.key_data_prefix(ino), 1)
    fs0.write_file("/g", b"y" * 3000, do_fsync=True)   # one PUT retried
    counters = Observability.of(sim).metrics.to_dict()["counters"]
    assert counters["store.retry.attempts"] == 1
    _mixed_ops(sim, cluster)
    return cluster


def _cephfs_mixed_run():
    sim = Simulator()
    cluster = build_cephfs(sim, n_clients=2)
    _mixed_ops(sim, cluster)
    return cluster


@pytest.mark.parametrize("case", [_arkfs_mixed_run_with_a_retried_put,
                                  _cephfs_mixed_run],
                         ids=["arkfs_retried_put", "cephfs"])
def test_a_mixed_run_leaves_no_cyclic_garbage(case):
    found = [name for name, _ in _unreachable_after(case)]
    assert found == [], sorted(set(found))
