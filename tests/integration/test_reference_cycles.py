"""A failed operation leaves no reference cycle behind.

An error travels up through processes: a handler process fails, and the
process waiting on it re-raises. If a stored exception's traceback keeps a
frame that keeps the exception or its process, the pair is a cycle that
only the cyclic collector frees, and every failed lookup in a long run
adds to the collector's work. Each case runs with the collector off and
the cluster still referenced, then asks the collector what it finds.
"""

import gc
import types

import pytest

from repro.baselines import build_cephfs
from repro.core.fs import build_arkfs
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


@pytest.mark.parametrize("case", [_arkfs_forwarded_negative_lookup,
                                  _cephfs_enoent_through_the_mds],
                         ids=["arkfs_forwarded", "cephfs_mds"])
def test_a_failed_lookup_leaves_no_cyclic_garbage(case):
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)      # keep what it finds, to name it
    try:
        cluster = case()
        gc.collect()
        found = [type(o).__name__ for o in gc.garbage
                 if isinstance(o, (BaseException, types.TracebackType,
                                   types.FrameType))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cluster is not None
    assert found == [], sorted(set(found))
