"""Lease protocol: FCFS, extension, redirect, fencing, restart.

Every class runs against a ring of one manager (the paper's deployment) and,
through its ``OnRingOfThree`` subclass at the bottom, against a ring of
three — the protocol a client sees is the same.
"""

import pytest

from repro.core.lease import (LeaseGrant, LeaseManagerCluster, LeaseRedirect,
                              LeaseWait)
from repro.core.params import DEFAULT_PARAMS
from repro.sim import Network, Node, Simulator


@pytest.fixture
def env(request):
    """``(sim, svc, svc, client_node)``: the service is both the thing tests
    inspect and the destination ``call`` routes lease RPCs through."""
    sim = Simulator()
    net = Network(sim)
    size = getattr(request.cls, "RING", 1)
    svc = LeaseManagerCluster(
        sim, [Node(sim, f"mgr{i}", net=net) for i in range(size)],
        DEFAULT_PARAMS)
    return sim, svc, svc, Node(sim, "c", net=net)


def call(sim, src, svc, method, dir_ino, *args):
    return sim.run_process(
        src.call(svc.node_for(dir_ino), method, dir_ino, *args))


class TestAcquire:
    def test_first_come_first_served(self, env):
        sim, mgr, mnode, cnode = env
        g = call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        assert isinstance(g, LeaseGrant)
        assert g.fresh and not g.needs_recovery
        r = call(sim, cnode, mnode, "lease.acquire", 42, "bob")
        assert isinstance(r, LeaseRedirect)
        assert r.leader == "alice"

    def test_same_holder_extension_not_fresh(self, env):
        sim, mgr, mnode, cnode = env
        g1 = call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        g2 = call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        assert not g2.fresh
        assert g2.expires_at >= g1.expires_at
        assert g2.epoch == g1.epoch
        assert g2.mgr_epoch == g1.mgr_epoch >= 1

    def test_lease_duration_matches_params(self, env):
        sim, mgr, mnode, cnode = env
        g = call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        assert g.expires_at == pytest.approx(
            sim.now + DEFAULT_PARAMS.lease_period, abs=0.01)

    def test_expired_unclean_lease_requires_fencing(self, env):
        sim, mgr, mnode, cnode = env
        g = call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        # alice never releases; lease expires.
        sim.run(until=g.expires_at + 0.1)
        w = call(sim, cnode, mnode, "lease.acquire", 42, "bob")
        assert isinstance(w, LeaseWait)
        assert "fencing" in w.reason
        # After the fence, bob gets it with recovery flagged.
        sim.run(until=w.retry_at + 0.1)
        g2 = call(sim, cnode, mnode, "lease.acquire", 42, "bob")
        assert isinstance(g2, LeaseGrant)
        assert g2.needs_recovery and g2.fresh
        assert g2.epoch == g.epoch + 1

    def test_clean_release_allows_immediate_regrant(self, env):
        sim, mgr, mnode, cnode = env
        call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        assert call(sim, cnode, mnode, "lease.release", 42, "alice", True)
        g = call(sim, cnode, mnode, "lease.acquire", 42, "bob")
        assert isinstance(g, LeaseGrant)
        assert not g.needs_recovery

    def test_release_by_non_holder_rejected(self, env):
        sim, mgr, mnode, cnode = env
        call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        assert not call(sim, cnode, mnode, "lease.release", 42, "bob", True)

    def test_regrant_to_same_client_after_lapse_is_fresh(self, env):
        """Even the previous leader must reload after its lease lapsed
        ("the metadata in memory might be out-of-date")."""
        sim, mgr, mnode, cnode = env
        g = call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        sim.run(until=g.expires_at + DEFAULT_PARAMS.lease_period + 0.1)
        g2 = call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        assert isinstance(g2, LeaseGrant)
        assert g2.fresh

    def test_independent_directories_independent_leases(self, env):
        sim, mgr, mnode, cnode = env
        call(sim, cnode, mnode, "lease.acquire", 1, "alice")
        g = call(sim, cnode, mnode, "lease.acquire", 2, "bob")
        assert isinstance(g, LeaseGrant)


class TestRecoveryProtocol:
    def _crash_and_fence(self, env):
        sim, mgr, mnode, cnode = env
        g = call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        sim.run(until=g.expires_at + DEFAULT_PARAMS.lease_period + 0.1)
        g2 = call(sim, cnode, mnode, "lease.acquire", 42, "bob")
        assert g2.needs_recovery
        return sim, mgr, mnode, cnode

    def test_others_wait_during_recovery(self, env):
        sim, mgr, mnode, cnode = self._crash_and_fence(env)
        w = call(sim, cnode, mnode, "lease.acquire", 42, "carol")
        assert isinstance(w, LeaseWait)
        assert "recovery" in w.reason

    def test_recovering_leader_can_reextend(self, env):
        sim, mgr, mnode, cnode = self._crash_and_fence(env)
        g = call(sim, cnode, mnode, "lease.acquire", 42, "bob")
        assert isinstance(g, LeaseGrant)
        assert g.needs_recovery  # still recovering

    def test_recovered_renews_and_unblocks(self, env):
        sim, mgr, mnode, cnode = self._crash_and_fence(env)
        assert call(sim, cnode, mnode, "lease.recovered", 42, "bob")
        r = call(sim, cnode, mnode, "lease.acquire", 42, "carol")
        assert isinstance(r, LeaseRedirect)
        assert r.leader == "bob"

    def test_recovered_by_wrong_client_rejected(self, env):
        sim, mgr, mnode, cnode = self._crash_and_fence(env)
        assert not call(sim, cnode, mnode, "lease.recovered", 42, "carol")


class TestManagerRestart:
    def test_restart_gates_grants_for_one_period(self, env):
        sim, mgr, mnode, cnode = env
        call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        sim.run(until=2.0)
        mgr.crash()
        mgr.restart()
        w = call(sim, cnode, mnode, "lease.acquire", 42, "bob")
        assert isinstance(w, LeaseWait)
        assert w.reason == "range-fenced"
        assert w.retry_at == pytest.approx(2.0 + DEFAULT_PARAMS.lease_period)
        sim.run(until=w.retry_at + 0.1)
        g = call(sim, cnode, mnode, "lease.acquire", 42, "bob")
        assert isinstance(g, LeaseGrant)

    def test_crashed_manager_unreachable(self, env):
        from repro.sim import NodeDown
        sim, mgr, mnode, cnode = env
        mgr.crash()
        with pytest.raises(NodeDown):
            call(sim, cnode, mnode, "lease.acquire", 42, "x")


class TestIntrospection:
    def test_holder_of(self, env):
        sim, mgr, mnode, cnode = env
        assert mgr.holder_of(42) is None
        g = call(sim, cnode, mnode, "lease.acquire", 42, "alice")
        assert mgr.holder_of(42) == "alice"
        sim.run(until=g.expires_at + 0.1)
        assert mgr.holder_of(42) is None

    def test_stats_counted(self, env):
        sim, mgr, mnode, cnode = env
        call(sim, cnode, mnode, "lease.acquire", 1, "a")
        call(sim, cnode, mnode, "lease.acquire", 1, "a")
        call(sim, cnode, mnode, "lease.acquire", 1, "b")
        assert mgr.stats["acquire"] == 1
        assert mgr.stats["extend"] == 1
        assert mgr.stats["redirect"] == 1


class TestAcquireOnRingOfThree(TestAcquire):
    RING = 3


class TestRecoveryProtocolOnRingOfThree(TestRecoveryProtocol):
    RING = 3


class TestManagerRestartOnRingOfThree(TestManagerRestart):
    RING = 3


class TestIntrospectionOnRingOfThree(TestIntrospection):
    RING = 3
