"""File read/write lease protocol (leader-side service), in isolation."""

import pytest

from repro.core.filelease import DIRECT, READ, WRITE, FileLeaseService
from repro.sim import Simulator


class Recorder:
    """Revocation callback that records (holder, ino) pairs."""

    def __init__(self, sim):
        self.sim = sim
        self.revoked = []

    def __call__(self, holder, ino, size=None):
        self.revoked.append((holder, ino))
        yield self.sim.timeout(0.001)


@pytest.fixture
def svc():
    sim = Simulator()
    rec = Recorder(sim)
    return sim, FileLeaseService(sim, lease_period=5.0, revoke_cb=rec), rec


def acquire(sim, service, ino, client, mode):
    return sim.run_process(service.acquire(ino, client, mode))


class TestReadLeases:
    def test_multiple_readers_share(self, svc):
        sim, s, rec = svc
        g1 = acquire(sim, s, 1, "a", READ)
        g2 = acquire(sim, s, 1, "b", READ)
        assert g1.mode == READ and g2.mode == READ
        assert s.holder_count(1) == 2
        assert rec.revoked == []

    def test_lease_expires(self, svc):
        sim, s, rec = svc
        g = acquire(sim, s, 1, "a", READ)
        assert g.expires_at == pytest.approx(5.0)
        sim.run(until=6.0)
        assert s.holder_count(1) == 0

    def test_renewal_extends(self, svc):
        sim, s, rec = svc
        acquire(sim, s, 1, "a", READ)
        sim.run(until=3.0)
        g = acquire(sim, s, 1, "a", READ)
        assert g.expires_at == pytest.approx(8.0)


class TestWriteUpgrade:
    def test_sole_holder_gets_exclusive_write(self, svc):
        sim, s, rec = svc
        acquire(sim, s, 1, "a", READ)
        g = acquire(sim, s, 1, "a", WRITE)
        assert g.mode == WRITE
        assert not s.is_direct(1)
        assert rec.revoked == []

    def test_version_bumps_on_write_grant(self, svc):
        sim, s, rec = svc
        g0 = acquire(sim, s, 1, "a", READ)
        g1 = acquire(sim, s, 1, "a", WRITE)
        assert g1.version > g0.version

    def test_conflict_revokes_and_goes_direct(self, svc):
        sim, s, rec = svc
        acquire(sim, s, 1, "a", READ)
        acquire(sim, s, 1, "b", READ)
        g = acquire(sim, s, 1, "b", WRITE)
        assert g.mode == DIRECT
        assert s.is_direct(1)
        assert ("a", 1) in rec.revoked  # the other holder was flushed

    def test_direct_mode_sticky_while_holders_remain(self, svc):
        sim, s, rec = svc
        acquire(sim, s, 1, "a", READ)
        acquire(sim, s, 1, "b", WRITE)  # direct (conflict)
        g = acquire(sim, s, 1, "c", READ)
        assert g.mode == DIRECT

    def test_direct_clears_when_all_leave(self, svc):
        sim, s, rec = svc
        acquire(sim, s, 1, "a", READ)
        acquire(sim, s, 1, "b", WRITE)
        v_direct = acquire(sim, s, 1, "c", READ).version
        sim.run(until=sim.now + s.lease_period + 1.0)  # all three lapse
        g = acquire(sim, s, 1, "d", READ)
        assert g.mode == READ
        assert g.version > v_direct  # fresh version after the direct era

    def test_new_reader_revokes_active_writer(self, svc):
        sim, s, rec = svc
        acquire(sim, s, 1, "w", WRITE)
        g = acquire(sim, s, 1, "r", READ)
        assert ("w", 1) in rec.revoked  # writer flushed before reader reads
        assert g.mode == READ

    def test_expired_writer_revoked_before_regrant(self, svc):
        """A writer that silently lapsed must still be flushed before anyone
        else can trust storage."""
        sim, s, rec = svc
        acquire(sim, s, 1, "w", WRITE)
        sim.run(until=6.0)  # writer's lease lapsed
        acquire(sim, s, 1, "r", READ)
        assert ("w", 1) in rec.revoked


class TestLifecycle:
    def test_forget_file(self, svc):
        sim, s, rec = svc
        acquire(sim, s, 1, "a", READ)
        s.forget_file(1)
        assert s.holder_count(1) == 0

    def test_files_are_independent(self, svc):
        sim, s, rec = svc
        acquire(sim, s, 1, "a", WRITE)
        g = acquire(sim, s, 2, "b", WRITE)
        assert g.mode == WRITE
        assert not s.is_direct(1) and not s.is_direct(2)

    def test_bad_mode_rejected(self, svc):
        sim, s, rec = svc
        with pytest.raises(ValueError):
            acquire(sim, s, 1, "a", "rw")

    def test_stats_counted(self, svc):
        sim, s, rec = svc
        acquire(sim, s, 1, "a", READ)
        acquire(sim, s, 1, "a", WRITE)
        acquire(sim, s, 1, "b", WRITE)
        assert s.stats["grants"] == 3
        assert s.stats["upgrades"] >= 1
        assert s.stats["direct_demotions"] == 1
