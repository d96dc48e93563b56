"""LeaseManagerCluster (the paper's future-work extension)."""

import pytest

from repro.core import build_arkfs
from repro.core.fsck import fsck
from repro.core.lease import (LeaseGrant, LeaseManager, LeaseManagerCluster,
                              LeaseWait)
from repro.core.params import DEFAULT_PARAMS
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Network, Node, Simulator


@pytest.fixture
def clustered():
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True,
                          n_lease_managers=4)
    return sim, cluster


class TestSharding:
    def test_deterministic_shard_assignment(self):
        sim = Simulator()
        net = Network(sim)
        nodes = [Node(sim, f"m{i}", net=net) for i in range(4)]
        svc = LeaseManagerCluster(sim, nodes, DEFAULT_PARAMS)
        assert svc.shard_of(42) is svc.shard_of(42)
        assert svc.node_for(42) is svc.shard_of(42).node

    def test_directories_spread_over_managers(self):
        sim = Simulator()
        net = Network(sim)
        nodes = [Node(sim, f"m{i}", net=net) for i in range(4)]
        svc = LeaseManagerCluster(sim, nodes, DEFAULT_PARAMS)
        used = {id(svc.shard_of(i)) for i in range(200)}
        assert len(used) == 4

    def test_empty_cluster_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            LeaseManagerCluster(sim, [], DEFAULT_PARAMS)


class TestFileSystemOnCluster:
    def test_full_semantics_still_hold(self, clustered):
        sim, cluster = clustered
        fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
        fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
        fs0.makedirs("/a/b")
        fs0.write_file("/a/b/f", b"sharded leases", do_fsync=True)
        assert fs1.read_file("/a/b/f") == b"sharded leases"
        fs1.rename("/a/b/f", "/a/f2")
        assert fs0.readdir("/a") == ["b", "f2"]

    def test_leases_tracked_at_the_right_shard(self, clustered):
        sim, cluster = clustered
        fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
        fs0.mkdir("/d")
        fs0.write_file("/d/f", b"")
        ino = fs0.stat("/d").st_ino
        svc = cluster.lease_service
        assert svc.holder_of(ino) == "client0"
        # Exactly one shard knows about it.
        knowing = [m for m in svc.managers if m.holder_of(ino)]
        assert len(knowing) == 1

    def test_shard_crash_only_blocks_its_directories(self, clustered):
        """Crashing one manager leaves directories on other shards usable."""
        sim, cluster = clustered
        fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
        svc = cluster.lease_service
        fs0.mkdir("/x")
        ino = fs0.stat("/x").st_ino
        victim = svc.shard_of(ino)
        # Find a directory landing on a DIFFERENT shard.
        other_name = None
        for i in range(50):
            fs0.mkdir(f"/probe{i}")
            if svc.shard_of(fs0.stat(f"/probe{i}").st_ino) is not victim:
                other_name = f"/probe{i}"
                break
        assert other_name is not None
        victim.crash()
        # Directories on surviving shards keep working for new clients.
        fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
        fs1.write_file(f"{other_name}/ok", b"alive")
        assert fs0.read_file(f"{other_name}/ok") == b"alive"

    def test_aggregate_stats(self, clustered):
        sim, cluster = clustered
        fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
        fs0.mkdir("/s")
        fs0.write_file("/s/f", b"")
        stats = cluster.lease_service.stats
        assert stats["acquire"] >= 2  # / and /s at least


class TestPerRangeRestartFence:
    """Regression for the stale-lease edge where a restarted manager
    refused ALL grants for one lease period. The refusal is scoped to the
    recovered range: directories on the restarted manager's OTHER serving
    ranges — and on every other manager — grant immediately."""

    @staticmethod
    def _svc(n=4):
        sim = Simulator()
        net = Network(sim)
        nodes = [Node(sim, f"m{i}", net=net) for i in range(n)]
        return sim, LeaseManagerCluster(sim, nodes, DEFAULT_PARAMS)

    @staticmethod
    def _ino_on_range(svc, idx, avoid=None):
        for i in range(10_000):
            ino = 0xBEEF00 + i
            if svc.range_index(ino) == idx and ino != avoid:
                return ino
        raise AssertionError("no ino found for range")

    def test_restart_fences_only_the_recovered_range(self):
        sim, svc = self._svc()
        fenced_ino = self._ino_on_range(svc, 0)
        other_ino = self._ino_on_range(svc, 1)
        svc.restart_manager(0)
        resp = sim.run_process(svc.managers[0]._h_acquire(fenced_ino, "c"))
        assert isinstance(resp, LeaseWait)
        assert resp.reason == "range-fenced"
        assert resp.retry_at == svc.ranges[0].fence_until
        # A directory on a different range grants with zero wait.
        resp = sim.run_process(svc.shard_of(other_ino)
                               ._h_acquire(other_ino, "c"))
        assert isinstance(resp, LeaseGrant), resp

    def test_restarted_manager_serves_its_unrecovered_ranges(self):
        """After a crash, the restarted home manager's range is fenced but
        a range it took over earlier (and still owns) keeps serving."""
        sim, svc = self._svc(2)
        svc.crash_manager(0)          # m1 now owns ranges 0 and 1
        taken = self._ino_on_range(svc, 0)
        home = self._ino_on_range(svc, 1)

        def _sleep(dt):
            yield sim.timeout(dt)
        sim.run_process(_sleep(svc.ranges[0].fence_until - sim.now + 1e-9))
        svc.restart_manager(1)        # re-fences range 1 only
        resp = sim.run_process(svc.managers[1]._h_acquire(home, "c"))
        assert isinstance(resp, LeaseWait)
        assert resp.reason == "range-fenced"
        resp = sim.run_process(svc.managers[1]._h_acquire(taken, "c"))
        assert isinstance(resp, LeaseGrant), resp

    def test_standalone_restart_still_gates_globally(self):
        """A manager built on its own is a ring of one: its one range is
        every directory, so the per-range fence refuses all grants for one
        lease period after a restart."""
        sim = Simulator()
        net = Network(sim)
        mgr = LeaseManager(sim, Node(sim, "m0", net=net), DEFAULT_PARAMS)
        grant = sim.run_process(mgr._h_acquire(0x1, "c"))
        assert isinstance(grant, LeaseGrant) and grant.mgr_epoch == 1
        mgr.restart()
        restarted_at = sim.now
        resp = sim.run_process(mgr._h_acquire(0x2, "c"))
        assert isinstance(resp, LeaseWait)
        assert resp.reason == "range-fenced"
        assert resp.retry_at == restarted_at + DEFAULT_PARAMS.lease_period


class TestFencedBackgroundCommit:
    def test_commit_that_loses_the_race_with_a_failover_drops_its_stream(self):
        """The one schedule on which a *background* commit meets a newer
        authority (``JournalManager._discard_fenced``): the leader records
        an op in the last instants of a lease granted just before its
        range failed over, a second client is granted the directory the
        moment the range fence lifts, and the commit thread ticks before
        the leader's lease keeper has noticed the lapse. The stale stream
        must be dropped, not committed; the deposed leader carries on as
        a follower; nothing acknowledged is lost."""
        sim = Simulator()
        # A thin renew margin keeps the lease keeper from abdicating a
        # whole second early; commit ticks stay on whole seconds.
        params = DEFAULT_PARAMS.with_(lease_renew_margin=0.01)
        cluster = build_arkfs(sim, n_clients=2, functional=True,
                              n_lease_managers=3, params=params)
        svc = cluster.lease_service
        old, new = cluster.client(0), cluster.client(1)
        fs_old, fs_new = SyncFS(old, ROOT_CREDS), SyncFS(new, ROOT_CREDS)
        fs_old.mkdir("/d")
        sim.run(until=0.96)             # lease [0.96, 5.96): tick at 6.0
        fs_old.write_file("/d/acked", b"durable", do_fsync=True)
        ino = fs_old.stat("/d").st_ino
        expires = old.metatables[ino].lease_expires
        rs = svc.range_for(ino)
        svc.fail_over(rs.index)
        assert expires < rs.fence_until < 6.0
        stale = svc.fencing.max_granted[ino]

        sim.run(until=expires - 0.005)
        fs_old.write_file("/d/unacked", b"buffered")
        assert old.journal.journals[ino].running    # still the leader

        sim.run(until=rs.fence_until)
        fs_new.write_file("/d/successor", b"new epoch", do_fsync=True)
        assert svc.fencing.max_granted[ino] > stale
        assert old.journal.journals[ino].running    # zombie stream, unflushed
        commits = old.journal.commits

        sim.run(until=6.0 + 1e-4)                   # the commit thread's tick
        assert svc.fencing.rejected == 1
        assert ino not in old.journal.journals
        assert old.journal.commits == commits       # nothing stale landed
        assert svc.fencing.drain_breaches() == []

        # Later ops on the deposed client re-resolve the authority.
        fs_old.write_file("/d/later", b"follower", do_fsync=True)
        for fs in (fs_old, fs_new):
            assert fs.readdir("/d") == ["acked", "later", "successor"]
            assert fs.read_file("/d/acked") == b"durable"
        sim.run_process(old.sync())
        sim.run_process(new.sync())
        sim.run(until=sim.now + 3)                  # let checkpoints drain
        # The fenced-out leader dropped the cached bytes of the create it
        # lost along with the stream, so its sync wrote nothing for an
        # inode that never existed: fsck is clean without crash allowances.
        report = sim.run_process(fsck(cluster.prt))
        assert report.clean, report.errors
        assert svc.fencing.drain_breaches() == []


class TestManagerScalability:
    def test_cluster_relieves_manager_bottleneck(self):
        """With many clients churning leases, 4 shards beat 1 manager.

        Lease churn is forced with a tiny lease period so acquisition
        traffic dominates.
        """
        def run(n_mgrs):
            sim = Simulator()
            params = DEFAULT_PARAMS.with_(lease_period=0.05,
                                          lease_renew_margin=0.01,
                                          lease_op_cpu=3e-3)
            cluster = build_arkfs(sim, n_clients=16, functional=True,
                                  params=params, n_lease_managers=n_mgrs)
            from repro.workloads import mdtest_easy

            r = mdtest_easy(sim, cluster.mounts, n_procs=16,
                            files_per_proc=30, phases=("CREATE",))
            return r.phases["CREATE"]

        one = run(1)
        four = run(4)
        assert four > one * 1.3, (one, four)
