"""Every public mount op is exactly one root op.

The mount layer is where ArkFS and every baseline become observable: each
public VFS op on a :class:`FuseMount` or :class:`KernelMount` calls the
root-op observer itself (``begin`` when it starts, ``end`` when it
finishes). These tests pin that contract per op, with the flight recorder
on and sampled tracing: one ``op.start`` and one ``op.end`` with the op's
name and outcome, and a sampled op hands its process's tracer back.
"""

import pytest

from repro.core import build_arkfs
from repro.obs import Observability
from repro.posix import (
    R_OK,
    FuseMount,
    KernelMount,
    NotFound,
    OpenFlags,
    ROOT_CREDS,
    VFSClient,
)
from repro.sim import Simulator

C = ROOT_CREDS

#: One call of each public VFS op against the tree :func:`_mounted` builds
#: (``h`` is a read-write handle on /d/f, ``acl`` that file's ACL).
OPS = {
    "lookup": lambda m, h, acl: m.lookup(C, "/d", "f"),
    "mkdir": lambda m, h, acl: m.mkdir(C, "/d/new"),
    "rmdir": lambda m, h, acl: m.rmdir(C, "/d/empty"),
    "open": lambda m, h, acl: m.open(C, "/d/f", OpenFlags.O_RDONLY),
    "close": lambda m, h, acl: m.close(h),
    "unlink": lambda m, h, acl: m.unlink(C, "/d/f"),
    "stat": lambda m, h, acl: m.stat(C, "/d/f"),
    "lstat": lambda m, h, acl: m.lstat(C, "/d/sl"),
    "readdir": lambda m, h, acl: m.readdir(C, "/d"),
    "rename": lambda m, h, acl: m.rename(C, "/d/f", "/d/g"),
    "read": lambda m, h, acl: m.read(h, 4, 0),
    "write": lambda m, h, acl: m.write(h, b"xy", 0),
    "fsync": lambda m, h, acl: m.fsync(h),
    "truncate": lambda m, h, acl: m.truncate(C, "/d/f", 1),
    "chmod": lambda m, h, acl: m.chmod(C, "/d/f", 0o600),
    "chown": lambda m, h, acl: m.chown(C, "/d/f", 1, 1),
    "utimens": lambda m, h, acl: m.utimens(C, "/d/f", 1.0, 2.0),
    "access": lambda m, h, acl: m.access(C, "/d/f", R_OK),
    "symlink": lambda m, h, acl: m.symlink(C, "/d/f", "/d/l2"),
    "readlink": lambda m, h, acl: m.readlink(C, "/d/sl"),
    "statfs": lambda m, h, acl: m.statfs(C),
    "getfacl": lambda m, h, acl: m.getfacl(C, "/d/f"),
    "setfacl": lambda m, h, acl: m.setfacl(C, "/d/f", acl),
}

#: Each op that names a path, aimed under a directory that does not exist.
MISSING = {
    "lookup": lambda m: m.lookup(C, "/nope", "f"),
    "mkdir": lambda m: m.mkdir(C, "/nope/d"),
    "rmdir": lambda m: m.rmdir(C, "/nope/d"),
    "open": lambda m: m.open(C, "/nope/f", OpenFlags.O_RDONLY),
    "unlink": lambda m: m.unlink(C, "/nope/f"),
    "stat": lambda m: m.stat(C, "/nope/f"),
    "lstat": lambda m: m.lstat(C, "/nope/f"),
    "readdir": lambda m: m.readdir(C, "/nope/d"),
    "rename": lambda m: m.rename(C, "/nope/f", "/d/g"),
    "truncate": lambda m: m.truncate(C, "/nope/f", 1),
    "chmod": lambda m: m.chmod(C, "/nope/f", 0o600),
    "chown": lambda m: m.chown(C, "/nope/f", 1, 1),
    "utimens": lambda m: m.utimens(C, "/nope/f", 1.0, 2.0),
    "access": lambda m: m.access(C, "/nope/f", R_OK),
    "symlink": lambda m: m.symlink(C, "/d/f", "/nope/l"),
    "readlink": lambda m: m.readlink(C, "/nope/l"),
    "getfacl": lambda m: m.getfacl(C, "/nope/f"),
    "setfacl": lambda m: m.setfacl(C, "/nope/f", None),
}

MOUNTS = [FuseMount, KernelMount]


def _mounted(mount_cls):
    """A mount over one ArkFS client, a small tree, then observability:
    the flight recorder and sampled tracing, enabled after the setup so
    the op under test is root op 0 (which every rate samples)."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=1, functional=True)
    inner = cluster.clients[0]
    mount = mount_cls(inner, inner.node)

    def setup():
        yield from mount.mkdir(C, "/d")
        yield from mount.mkdir(C, "/d/empty")
        yield from mount.write_file(C, "/d/f", b"abcdef")
        yield from mount.symlink(C, "/d/f", "/d/sl")
        acl = yield from mount.getfacl(C, "/d/f")
        h = yield from mount.open(C, "/d/f", OpenFlags.O_RDWR)
        return h, acl

    h, acl = sim.run_process(setup())
    obs = Observability.of(sim)
    obs.enable_recorder(capacity=4096)
    obs.enable_tracing(pid_name="arkfs", sample_rate=0.01)
    return sim, obs, mount, h, acl


def _run_root_op(sim, gen):
    """Run ``gen`` as a process; returns (raised exception or None, the
    process's tracer before and after the op)."""
    seen = {}

    def caller():
        seen["before"] = sim._active_proc.tracer
        try:
            yield from gen
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            seen["raised"] = exc
        seen["after"] = sim._active_proc.tracer

    sim.run_process(caller())
    return seen.get("raised"), seen["before"], seen["after"]


def _root_events(obs):
    return [(kind, fields) for _t, kind, fields in obs.recorder.events
            if kind in ("op.start", "op.end")]


def test_table_covers_every_public_vfs_op():
    public = set(VFSClient.__abstractmethods__) | {"lookup", "statfs"}
    assert set(OPS) == public
    assert len(OPS) == 23


@pytest.mark.parametrize("mount_cls", MOUNTS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("op", sorted(OPS))
def test_each_op_is_one_sampled_root_op(mount_cls, op):
    sim, obs, mount, h, acl = _mounted(mount_cls)
    raised, before, after = _run_root_op(sim, OPS[op](mount, h, acl))
    assert raised is None
    events = _root_events(obs)
    assert [kind for kind, _f in events] == ["op.start", "op.end"]
    (_s, start), (_e, end) = events
    assert start == {"op": "vfs." + op, "id": 0, "sampled": True}
    assert end["op"] == "vfs." + op and end["id"] == 0 and end["ok"] is True
    ob = obs._op_observer
    assert (ob.n_root, ob.n_sampled) == (1, 1)
    roots = [s for s in obs.tracer.spans if s.args and "op" in s.args]
    assert [r.name for r in roots] == ["vfs." + op]
    # The sampled op traced its process only while it ran.
    assert before is None and after is None


@pytest.mark.parametrize("mount_cls", MOUNTS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("op", sorted(MISSING))
def test_enoent_is_one_failed_root_op(mount_cls, op):
    sim, obs, mount, _h, _acl = _mounted(mount_cls)
    raised, before, after = _run_root_op(sim, MISSING[op](mount))
    assert isinstance(raised, NotFound)
    events = _root_events(obs)
    assert [kind for kind, _f in events] == ["op.start", "op.end"]
    assert events[1][1]["op"] == "vfs." + op
    assert events[1][1]["ok"] is False
    assert before is None and after is None
