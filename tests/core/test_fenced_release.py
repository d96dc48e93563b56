"""Giving up a directory under a lease service that is always fenced.

Every build checks every journal commit against the highest token the lease
service ever granted, so the order in which a leader lets go matters: flush
while the token is still the granted one, or discard. These tests fail at the
commit before the lease service became one shape (a ring of >= 1 managers).
"""

import pytest

from repro.core import build_arkfs
from repro.core.fsck import fsck
from repro.core.lease import LeaseGrant, LeaseWait
from repro.core.params import DEFAULT_PARAMS
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator

RING_SIZES = [1, 3]


def _strict_fsck(sim, cluster):
    for c in cluster.clients:
        sim.run_process(c.sync())
    sim.run(until=sim.now + 3)                  # let checkpoints drain
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.errors
    assert cluster.lease_service.fencing.breaches == []


@pytest.mark.parametrize("n_mgrs", RING_SIZES)
def test_rmdir_of_a_directory_with_a_dirty_journal(n_mgrs):
    """``rmdir`` surrenders the child while its journal still buffers the
    create + unlink: the release must commit them under the lease's token
    before it lets the metatable go, not after."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True,
                          n_lease_managers=n_mgrs)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/d")
    fs.write_file("/d/f", b"")
    fs.unlink("/d/f")
    fs.rmdir("/d")
    assert fs.readdir("/") == []
    assert SyncFS(cluster.client(1), ROOT_CREDS).readdir("/") == []
    fencing = cluster.lease_service.fencing
    assert fencing.commits > 0 and fencing.rejected == 0
    _strict_fsck(sim, cluster)


@pytest.mark.parametrize("n_mgrs", RING_SIZES)
def test_restarted_manager_never_grants_inside_its_fence_window(n_mgrs):
    """One restart path for every ring size: the manager comes back with no
    lease state, so the range it reclaims refuses grants until every lease
    the previous epoch issued has lapsed — then grants at the next epoch,
    with a journal replay."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True,
                          n_lease_managers=n_mgrs)
    svc = cluster.lease_service
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/d")
    fs.write_file("/d/f", b"held", do_fsync=True)
    ino = fs.stat("/d").st_ino
    assert svc.holder_of(ino) == "client0"
    held_until = cluster.client(0).metatables[ino].lease_expires
    mgr = svc.shard_of(ino)
    mgr.crash()
    mgr.restart()
    rs = svc.range_for(ino)
    # Epoch 2 for a ring of one; 3 when a successor held the range between.
    assert rs.owner == mgr.index and rs.epoch > 1
    assert rs.fence_until >= held_until

    while sim.now < rs.fence_until:
        resp = sim.run_process(mgr._h_acquire(ino, "client1"))
        assert isinstance(resp, LeaseWait), resp
        assert resp.reason == "range-fenced"
        assert resp.retry_at == rs.fence_until
        sim.run(until=min(sim.now + 0.5, rs.fence_until))
    grant = sim.run_process(mgr._h_acquire(ino, "client1"))
    assert isinstance(grant, LeaseGrant)
    assert grant.mgr_epoch == rs.epoch and grant.needs_recovery


def test_deposed_leader_buffered_ops_never_land():
    """Default build (one manager). The leader buffers a create in the last
    instants of a lease granted just before the manager restarted; a second
    client is granted the directory the moment the fence lifts; then the
    old leader's commit thread ticks. Its stream carries a token below the
    new grant: nothing of it may reach the store, and the cached bytes of
    the create it lost go with it."""
    sim = Simulator()
    # A thin renew margin keeps the lease keeper from handing the directory
    # back a whole second early, and a commit interval whose seventh tick
    # (5.985) falls between the lapse and the keeper's next look (6.0)
    # makes the commit thread the first to meet the new authority.
    params = DEFAULT_PARAMS.with_(lease_renew_margin=0.01,
                                  journal_commit_interval=0.855)
    cluster = build_arkfs(sim, n_clients=2, functional=True, params=params)
    svc = cluster.lease_service
    old, new = cluster.client(0), cluster.client(1)
    fs_old, fs_new = SyncFS(old, ROOT_CREDS), SyncFS(new, ROOT_CREDS)
    sim.run(until=0.96)                 # leases [0.96, 5.96)
    fs_old.mkdir("/d")                  # (the root's and /d's alike)
    fs_old.write_file("/d/acked", b"durable", do_fsync=True)
    ino = fs_old.stat("/d").st_ino
    expires = old.metatables[ino].lease_expires
    cluster.lease_manager.crash()
    cluster.lease_manager.restart()
    fence_until = svc.range_for(ino).fence_until
    assert expires < fence_until < 5.985

    sim.run(until=expires - 0.005)
    fs_old.write_file("/d/unacked", b"buffered")
    assert old.journal.journals[ino].running    # still the leader
    commits = old.journal.commits

    sim.run(until=fence_until)
    fs_new.write_file("/d/successor", b"new epoch", do_fsync=True)
    sim.run(until=5.985 + 1e-4)                 # the commit thread's tick
    assert old.journal.commits == commits       # nothing stale landed
    assert svc.fencing.rejected == 1            # ... the fence refused it
    assert ino not in old.journal.journals
    assert ino not in old.metatables

    fs_old.write_file("/d/later", b"follower", do_fsync=True)
    for fs in (fs_old, fs_new):
        assert fs.readdir("/d") == ["acked", "later", "successor"]
        assert fs.read_file("/d/acked") == b"durable"
    _strict_fsck(sim, cluster)
