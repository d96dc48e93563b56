"""Access control through the full stack: mode bits, ACLs, ownership and
the setattr rules, on ArkFS and on the CephFS/MarFS baselines.

The directory leader and the MDS namespace run one set of POSIX inode
rules (``repro.core.inode_rules``), so every case here runs on both: a
class as written runs on ArkFS (the ``cluster`` fixture of conftest.py),
and its ``...OnCephFS`` subclass runs the same cases on a functional
CephFS cluster.
"""

import pytest

from repro.baselines import build_cephfs, build_marfs
from repro.posix import (
    Acl,
    Credentials,
    InvalidArgument,
    IsADirectory,
    NotPermitted,
    OpenFlags,
    PermissionDenied,
    R_OK,
    ROOT_CREDS,
    SyncFS,
    W_OK,
    X_OK,
)

ALICE = Credentials(uid=1000, gid=1000)
BOB = Credentials(uid=1001, gid=1001)
CAROL_IN_ALICE_GROUP = Credentials(uid=1002, gid=1002, groups=(1000,))


@pytest.fixture
def setup(cluster):
    """Root prepares /home/alice owned by alice, mode 0700."""
    root = SyncFS(cluster.client(0), ROOT_CREDS)
    root.makedirs("/home/alice")
    root.chown("/home/alice", 1000, 1000)
    root.chmod("/home/alice", 0o700)
    root.chmod("/home", 0o755)
    root.chmod("/", 0o755)
    return cluster, root


def as_user(cluster, creds, i=0):
    return SyncFS(cluster.client(i), creds)


class TestModeBits:
    def test_owner_can_enter_others_cannot(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        alice.write_file("/home/alice/secret", b"mine")
        bob = as_user(cluster, BOB)
        with pytest.raises(PermissionDenied):
            bob.read_file("/home/alice/secret")

    def test_group_access_via_supplementary_group(self, setup):
        cluster, root = setup
        root.chmod("/home/alice", 0o750)
        root.chown("/home/alice", 1000, 1000)
        as_user(cluster, ALICE).write_file("/home/alice/f", b"x", 0o640)
        carol = as_user(cluster, CAROL_IN_ALICE_GROUP)
        assert carol.read_file("/home/alice/f") == b"x"
        bob = as_user(cluster, BOB)
        with pytest.raises(PermissionDenied):
            bob.read_file("/home/alice/f")

    def test_write_denied_without_w_on_dir(self, setup):
        cluster, root = setup
        bob = as_user(cluster, BOB)
        root.chmod("/home/alice", 0o755)
        with pytest.raises(PermissionDenied):
            bob.write_file("/home/alice/intruder", b"")

    def test_unlink_needs_dir_write(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        root.chmod("/home/alice", 0o755)
        alice.as_user(ALICE)
        as_user(cluster, ALICE).write_file("/home/alice/f", b"")
        bob = as_user(cluster, BOB)
        with pytest.raises(PermissionDenied):
            bob.unlink("/home/alice/f")

    def test_file_mode_enforced_on_open(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        root.chmod("/home/alice", 0o755)
        alice.write_file("/home/alice/ro", b"x", mode=0o444)
        with pytest.raises(PermissionDenied):
            alice.open("/home/alice/ro", OpenFlags.O_WRONLY)

    def test_umask_applied_at_create(self, setup):
        cluster, _ = setup
        masked = Credentials(uid=1000, gid=1000, umask=0o077)
        fs = as_user(cluster, masked)
        fs.write_file("/home/alice/m", b"", mode=0o666)
        assert fs.stat("/home/alice/m").perm_bits & 0o777 == 0o600

    def test_root_bypasses_everything(self, setup):
        cluster, root = setup
        as_user(cluster, ALICE).write_file("/home/alice/p", b"s", 0o600)
        assert root.read_file("/home/alice/p") == b"s"

    def test_access_syscall(self, setup):
        cluster, root = setup
        as_user(cluster, ALICE).write_file("/home/alice/f", b"", 0o640)
        root.chmod("/home/alice", 0o755)
        alice = as_user(cluster, ALICE)
        assert alice.access("/home/alice/f", R_OK | W_OK)
        bob = as_user(cluster, BOB)
        assert not bob.access("/home/alice/f", R_OK)

    def test_traversal_needs_x_on_every_component(self, setup):
        cluster, root = setup
        root.chmod("/home", 0o700)  # only root may traverse /home now
        bob = as_user(cluster, BOB)
        with pytest.raises(PermissionDenied):
            bob.stat("/home/alice")


class TestOwnership:
    def test_chmod_requires_owner(self, setup):
        cluster, root = setup
        as_user(cluster, ALICE).write_file("/home/alice/f", b"", 0o644)
        root.chmod("/home/alice", 0o755)
        bob = as_user(cluster, BOB)
        with pytest.raises(NotPermitted):
            bob.chmod("/home/alice/f", 0o777)

    def test_chown_requires_root(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        alice.write_file("/home/alice/f", b"")
        with pytest.raises(NotPermitted):
            alice.chown("/home/alice/f", 1001, 1001)

    def test_owner_may_chgrp_to_own_group(self, setup):
        cluster, root = setup
        creds = Credentials(uid=1000, gid=1000, groups=(3000,))
        fs = as_user(cluster, creds)
        fs.write_file("/home/alice/f", b"")
        fs.chown("/home/alice/f", 1000, 3000)
        assert fs.stat("/home/alice/f").st_gid == 3000

    def test_owner_may_not_chgrp_to_foreign_group(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        alice.write_file("/home/alice/f", b"")
        with pytest.raises(NotPermitted):
            alice.chown("/home/alice/f", 1000, 9999)


class TestAcls:
    def test_setfacl_grants_named_user(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        alice.write_file("/home/alice/shared", b"payload", 0o600)
        root.chmod("/home/alice", 0o701)  # bob can traverse but not list
        acl = alice.getfacl("/home/alice/shared")
        acl.set_user(1001, R_OK)
        alice.setfacl("/home/alice/shared", acl)
        bob = as_user(cluster, BOB)
        assert bob.read_file("/home/alice/shared") == b"payload"
        with pytest.raises(PermissionDenied):
            bob.open("/home/alice/shared", OpenFlags.O_WRONLY)

    def test_acl_mask_caps_named_user(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        root.chmod("/home/alice", 0o701)
        alice.write_file("/home/alice/f", b"x", 0o600)
        acl = alice.getfacl("/home/alice/f")
        acl.set_user(1001, R_OK | W_OK)
        acl.mask = 0
        alice.setfacl("/home/alice/f", acl)
        bob = as_user(cluster, BOB)
        with pytest.raises(PermissionDenied):
            bob.read_file("/home/alice/f")

    def test_acl_on_directory_controls_entry(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        acl = alice.getfacl("/home/alice")
        acl.set_user(1001, R_OK | X_OK)
        alice.setfacl("/home/alice", acl)
        alice.write_file("/home/alice/f", b"ok", 0o644)
        bob = as_user(cluster, BOB)
        assert bob.read_file("/home/alice/f") == b"ok"

    def test_setfacl_requires_owner(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        alice.write_file("/home/alice/f", b"")
        root.chmod("/home/alice", 0o755)
        bob = as_user(cluster, BOB)
        acl = Acl.from_mode(0o777)
        with pytest.raises(NotPermitted):
            bob.setfacl("/home/alice/f", acl)

    def test_acl_survives_storage_roundtrip(self, setup, sim):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        alice.write_file("/home/alice/f", b"", 0o600)
        acl = alice.getfacl("/home/alice/f")
        acl.set_user(42, 5)
        alice.setfacl("/home/alice/f", acl)
        # Push metadata through journal checkpoint, then read from the other
        # client (loads the inode from object storage via its own lease).
        sim.run(until=sim.now + 3)
        bob_view = as_user(cluster, ROOT_CREDS, i=1)
        got = bob_view.getfacl("/home/alice/f")
        assert got.named_users == {42: 5}

    def test_chmod_updates_acl_mask(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        alice.write_file("/home/alice/f", b"", 0o660)
        acl = alice.getfacl("/home/alice/f")
        acl.set_user(1001, 7)
        alice.setfacl("/home/alice/f", acl)
        alice.chmod("/home/alice/f", 0o600)
        got = alice.getfacl("/home/alice/f")
        assert got.mask == 0


class TestSetattrRules:
    """The setattr checks CephFS/MarFS lacked before they ran the leader's
    rules: each of these calls succeeded there."""

    def test_truncate_of_a_directory_is_eisdir(self, setup):
        cluster, root = setup
        with pytest.raises(IsADirectory):
            root.truncate("/home/alice", 5)
        assert root.stat("/home/alice").st_size == 0

    def test_negative_truncate_is_einval(self, setup):
        cluster, root = setup
        alice = as_user(cluster, ALICE)
        alice.write_file("/home/alice/f", b"abc")
        with pytest.raises(InvalidArgument):
            alice.truncate("/home/alice/f", -1)
        assert alice.stat("/home/alice/f").st_size == 3

    def test_utimens_by_non_owner_needs_write_permission(self, setup):
        cluster, root = setup
        as_user(cluster, ALICE).write_file("/home/alice/f", b"", 0o644)
        root.chmod("/home/alice", 0o755)
        bob = as_user(cluster, BOB)
        with pytest.raises(PermissionDenied):
            bob.utimens("/home/alice/f", 1.0, 2.0)
        root.chmod("/home/alice/f", 0o646)
        bob.utimens("/home/alice/f", 1.0, 2.0)
        assert bob.stat("/home/alice/f").st_mtime == 2.0


class OnCephFS:
    """Mixin: the cases of the class it is mixed into, on CephFS."""

    @pytest.fixture
    def cluster(self, sim):
        return build_cephfs(sim, n_clients=2, functional=True)


class TestModeBitsOnCephFS(OnCephFS, TestModeBits):
    pass


class TestOwnershipOnCephFS(OnCephFS, TestOwnership):
    pass


class TestAclsOnCephFS(OnCephFS, TestAcls):
    pass


class TestSetattrRulesOnCephFS(OnCephFS, TestSetattrRules):
    pass


class TestSetattrRulesOnMarFS(TestSetattrRules):
    @pytest.fixture
    def cluster(self, sim):
        return build_marfs(sim, n_clients=2, functional=True)


class TestPermissionCacheSemantics:
    def test_pcache_serves_stale_perm_until_expiry(self, cluster, sim):
        """In pcache mode a permission change becomes visible to other
        clients only after the lease period (the paper's relaxation)."""
        assert cluster.params.permission_cache
        root0 = SyncFS(cluster.client(0), ROOT_CREDS)
        root0.makedirs("/data/proj")
        root0.chmod("/data", 0o755)
        root0.chmod("/data/proj", 0o755)
        root0.write_file("/data/proj/f", b"x", 0o644)
        bob = SyncFS(cluster.client(1), BOB)
        assert bob.read_file("/data/proj/f") == b"x"  # warms client1's pcache
        root0.chmod("/data", 0o700)  # lock /data down
        # Within the lease period the cached permission still allows entry.
        assert bob.read_file("/data/proj/f") == b"x"
        # After expiry the new permissions are enforced.
        sim.run(until=sim.now + cluster.params.lease_period + 1)
        with pytest.raises(PermissionDenied):
            bob.read_file("/data/proj/f")
