"""FUSE and kernel mount models.

The paper attributes several first-order effects to the FUSE kernel driver:

* every path-based operation is decomposed into per-component ``LOOKUP``
  requests to the user-space daemon ("if an application calls
  CREATE(/home/foo.txt), it incurs three LOOKUP requests ... and ArkFS
  performs path traversal on each request") — this is what makes the
  no-pcache configuration collapse (Fig. 7);
* the kernel holds an exclusive per-directory lock until the user-space
  daemon completes a LOOKUP, which narrows ArkFS's STAT-phase advantage in
  mdtest-hard (Fig. 5);
* each request pays user/kernel crossing overhead, which (together with
  ceph-fuse's global client lock) keeps CephFS-F and MarFS slow (Fig. 4).

:class:`FuseMount` wraps any :class:`~repro.posix.vfs.VFSClient` and adds
exactly these behaviours; :class:`KernelMount` models an in-kernel client
(CephFS-K): cheap crossings, no user-space lock extension.

Both maintain a positive dentry cache with a TTL (the kernel dcache /
FUSE ``entry_timeout``), shared by all processes using the mount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.engine import SimGen
from ..sim.network import Node
from ..sim.resources import Mutex
from . import path as pathmod
from .errors import NotFound
from .types import Credentials, OpenFlags
from .vfs import FileHandle, VFSClient

__all__ = ["MountParams", "FuseMount", "KernelMount", "FUSE_DEFAULTS",
           "KERNEL_DEFAULTS"]


@dataclass(frozen=True)
class MountParams:
    """Mount-layer costs and behaviours."""

    crossing_latency: float = 10e-6    # per-request user<->kernel round trip
    dispatch_cpu: float = 3e-6         # daemon/kernel dispatch work per request
    entry_ttl: float = 1.0             # dentry cache validity (entry_timeout)
    lookup_locked: bool = True         # dir lock held across user-space LOOKUP
    global_lock_service: float = 0.0   # ceph-fuse-style global client mutex
    data_lock_service: float = -1.0    # lock hold per *data* request; the
                                       # buffer-cache insert is much shorter
                                       # than a metadata op (-1: same value)
    max_request: int = 128 * 1024      # FUSE max_write: I/O request split size

    @property
    def effective_data_lock(self) -> float:
        if self.data_lock_service >= 0:
            return self.data_lock_service
        return self.global_lock_service


FUSE_DEFAULTS = MountParams()
KERNEL_DEFAULTS = MountParams(crossing_latency=0.7e-6, dispatch_cpu=0.8e-6,
                              lookup_locked=False)


class _MountBase(VFSClient):
    """Shared plumbing for FUSE and kernel mounts."""

    def __init__(self, inner: VFSClient, node: Node, params: MountParams):
        self.inner = inner
        self.node = node
        self.params = params
        self.sim = inner.sim
        # Positive dentry cache: path -> expiry time. Shared across processes.
        self._dcache: Dict[str, float] = {}
        # Per-directory exclusive lookup/mutation locks (kernel i_rwsem).
        self._dir_locks: Dict[str, Mutex] = {}
        self._global_lock: Optional[Mutex] = (
            Mutex(self.sim, name="fuse.client_lock")
            if params.global_lock_service > 0 else None
        )
        self.request_count = 0

    # -- request cost plumbing ------------------------------------------------

    def _request(self) -> SimGen:
        """Cost of shipping one request through the mount boundary."""
        self.request_count += 1
        if self.params.crossing_latency > 0:
            tr = self.sim._active_proc.tracer
            if tr is not None:
                with tr.span("fuse.crossing", "fuse"):
                    yield self.sim.timeout(self.params.crossing_latency)
            else:
                yield self.sim.timeout(self.params.crossing_latency)
        if self.params.dispatch_cpu > 0:
            yield from self.node.work(self.params.dispatch_cpu)

    def _globally_locked(self, gen: SimGen) -> SimGen:
        """Run ``gen`` under the client-global mutex (ceph-fuse style);
        without one, ``gen`` itself is what the caller iterates."""
        if self._global_lock is None:
            return gen
        return self._under_global_lock(gen)

    def _under_global_lock(self, gen: SimGen) -> SimGen:
        req = yield from self._global_lock.acquire()
        try:
            yield from self.node.work(self.params.global_lock_service)
            return (yield from gen)
        finally:
            self._global_lock.release(req)

    def _dir_lock(self, dirpath: str) -> Mutex:
        lock = self._dir_locks.get(dirpath)
        if lock is None:
            lock = Mutex(self.sim, name=f"dirlock:{dirpath}")
            self._dir_locks[dirpath] = lock
        return lock

    # -- dentry cache -----------------------------------------------------------

    def _dcache_valid(self, path: str) -> bool:
        exp = self._dcache.get(path)
        return exp is not None and exp > self.sim.now

    def _dcache_insert(self, path: str) -> None:
        self._dcache[path] = self.sim.now + self.params.entry_ttl

    def invalidate_dcache(self) -> None:
        """Drop every cached dentry (benchmarks use this at phase barriers:
        at real mdtest scale each phase far outlives the 1 s entry TTL, so
        carrying entries across phases would be a scale-down artifact)."""
        self._dcache.clear()

    def _dcache_drop(self, path: str) -> None:
        self._dcache.pop(path, None)
        # Invalidate the whole subtree (rename/rmdir of a directory).
        prefix = path + "/"
        for key in [k for k in self._dcache if k.startswith(prefix)]:
            del self._dcache[key]

    # -- LOOKUP traffic ------------------------------------------------------------

    def _lookup_component(self, creds: Credentials, parent: str,
                          name: str) -> SimGen:
        """One LOOKUP request: cost + (optionally locked) daemon-side resolve."""
        yield from self._request()
        resolve = self._globally_locked(self.inner.lookup(creds, parent, name))
        if not self.params.lookup_locked:
            return (yield from resolve)
        lock = self._dir_lock(parent)
        req = yield from lock.acquire()
        try:
            return (yield from resolve)
        finally:
            lock.release(req)

    def _walk(self, creds: Credentials, path: str,
              include_final: bool = True) -> SimGen:
        """Issue LOOKUPs for every non-cached component of ``path``.

        Returns the normalized path. Raises what the daemon raises (ENOENT,
        EACCES, ...) exactly as the kernel would surface it.
        """
        parts = pathmod.split_path(path)
        upto = len(parts) if include_final else len(parts) - 1
        cur = ""
        for i in range(upto):
            parent = "/" + "/".join(parts[:i]) if i else "/"
            cur = parent.rstrip("/") + "/" + parts[i]
            if self._dcache_valid(cur):
                continue
            yield from self._lookup_component(creds, parent, parts[i])
            self._dcache_insert(cur)
        return "/" + "/".join(parts)

    # -- operation wrappers ----------------------------------------------------------

    def _pathop(self, creds: Credentials, path: str, gen: SimGen,
                lock_parent: bool = False, walk_final: bool = True,
                tolerate_missing_final: bool = False) -> SimGen:
        """LOOKUP walk + one request carrying the actual operation."""
        try:
            yield from self._walk(creds, path, include_final=walk_final)
        except NotFound:
            if not tolerate_missing_final:
                raise
        yield from self._request()
        if lock_parent:
            parent, _name = pathmod.parent_and_name(path)
            lock = self._dir_lock(parent)
            req = yield from lock.acquire()
            try:
                return (yield from self._globally_locked(gen))
            finally:
                lock.release(req)
        return (yield from self._globally_locked(gen))

    # -- VFS implementation ------------------------------------------------------------

    def lookup(self, creds: Credentials, dir_path: str, name: str) -> SimGen:
        return self.inner.lookup(creds, dir_path, name)

    def mkdir(self, creds: Credentials, path: str, mode: int = 0o777) -> SimGen:
        result = yield from self._pathop(
            creds, path, self.inner.mkdir(creds, path, mode),
            lock_parent=True, walk_final=False,
        )
        return result

    def rmdir(self, creds: Credentials, path: str) -> SimGen:
        result = yield from self._pathop(
            creds, path, self.inner.rmdir(creds, path), lock_parent=True,
        )
        self._dcache_drop(pathmod.normalize(path))
        return result

    def open(self, creds: Credentials, path: str, flags: OpenFlags,
             mode: int = 0o666) -> SimGen:
        creating = bool(flags & OpenFlags.O_CREAT)
        handle = yield from self._pathop(
            creds, path, self.inner.open(creds, path, flags, mode),
            lock_parent=creating, tolerate_missing_final=creating,
        )
        if creating:
            self._dcache_insert(pathmod.normalize(path))
        return handle

    def close(self, handle: FileHandle) -> SimGen:
        yield from self._request()
        return (yield from self.inner.close(handle))

    def unlink(self, creds: Credentials, path: str) -> SimGen:
        result = yield from self._pathop(
            creds, path, self.inner.unlink(creds, path), lock_parent=True,
        )
        self._dcache_drop(pathmod.normalize(path))
        return result

    def stat(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop(creds, path, self.inner.stat(creds, path))

    def lstat(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop(creds, path, self.inner.lstat(creds, path))

    def readdir(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop(creds, path, self.inner.readdir(creds, path))

    def rename(self, creds: Credentials, src: str, dst: str) -> SimGen:
        yield from self._walk(creds, src)
        try:
            yield from self._walk(creds, dst)
        except NotFound:
            pass
        yield from self._request()
        result = yield from self._globally_locked(
            self.inner.rename(creds, src, dst))
        self._dcache_drop(pathmod.normalize(src))
        self._dcache_drop(pathmod.normalize(dst))
        return result

    def _data_request(self) -> SimGen:
        """One data-path FUSE request: crossing + dispatch, and — for
        clients with a global mutex (ceph-fuse, MarFS interactive) — a
        serialized section per request. This per-128KB serialization is why
        ceph-fuse bulk data movement collapses under multiple processes."""
        yield from self._request()
        if self._global_lock is not None:
            req = yield from self._global_lock.acquire()
            try:
                yield from self.node.work(self.params.effective_data_lock)
            finally:
                self._global_lock.release(req)

    def read(self, handle: FileHandle, size: int,
             offset: Optional[int] = None) -> SimGen:
        # The kernel splits large I/O into max_request-sized FUSE requests.
        nreq = max(1, -(-size // self.params.max_request))
        for _ in range(nreq):
            yield from self._data_request()
        return (yield from self.inner.read(handle, size, offset))

    def write(self, handle: FileHandle, data: bytes,
              offset: Optional[int] = None) -> SimGen:
        nreq = max(1, -(-len(data) // self.params.max_request))
        for _ in range(nreq):
            yield from self._data_request()
        return (yield from self.inner.write(handle, data, offset))

    def fsync(self, handle: FileHandle) -> SimGen:
        yield from self._request()
        return (yield from self.inner.fsync(handle))

    def truncate(self, creds: Credentials, path: str, size: int) -> SimGen:
        return (yield from self._pathop(
            creds, path, self.inner.truncate(creds, path, size)))

    def chmod(self, creds: Credentials, path: str, mode: int) -> SimGen:
        return (yield from self._pathop(
            creds, path, self.inner.chmod(creds, path, mode)))

    def chown(self, creds: Credentials, path: str, uid: int, gid: int) -> SimGen:
        return (yield from self._pathop(
            creds, path, self.inner.chown(creds, path, uid, gid)))

    def utimens(self, creds: Credentials, path: str, atime: float,
                mtime: float) -> SimGen:
        return (yield from self._pathop(
            creds, path, self.inner.utimens(creds, path, atime, mtime)))

    def access(self, creds: Credentials, path: str, want: int) -> SimGen:
        return (yield from self._pathop(
            creds, path, self.inner.access(creds, path, want)))

    def symlink(self, creds: Credentials, target: str, linkpath: str) -> SimGen:
        return (yield from self._pathop(
            creds, linkpath, self.inner.symlink(creds, target, linkpath),
            lock_parent=True, walk_final=False,
        ))

    def readlink(self, creds: Credentials, path: str) -> SimGen:
        return (yield from self._pathop(
            creds, path, self.inner.readlink(creds, path)))

    def statfs(self, creds: Credentials) -> SimGen:
        yield from self._request()
        return (yield from self.inner.statfs(creds))

    def getfacl(self, creds: Credentials, path: str) -> SimGen:
        return (yield from self._pathop(
            creds, path, self.inner.getfacl(creds, path)))

    def setfacl(self, creds: Credentials, path: str, acl) -> SimGen:
        return (yield from self._pathop(
            creds, path, self.inner.setfacl(creds, path, acl)))


# Every public VFS op is a root op ("vfs.<op>"): with any observability
# installed it runs under the root-op observer, which samples it, opens its
# root span, and feeds the slow-op log and flight recorder, across ArkFS
# and every baseline alike (they all sit behind a mount). Without one the
# wrapper returns the raw generator untouched — one attribute check — and
# the names are precomputed at import time.
_VFS_OPS = (
    "lookup", "mkdir", "rmdir", "open", "close", "unlink", "stat", "lstat",
    "readdir", "rename", "read", "write", "fsync", "truncate", "chmod",
    "chown", "utimens", "access", "symlink", "readlink", "statfs",
    "getfacl", "setfacl",
)


def _as_root_op(op: str, fn):
    name = "vfs." + op

    def method(self, *args, **kwargs):
        gen = fn(self, *args, **kwargs)
        ob = self.sim._obs_ops
        if ob is None:
            return gen
        return ob.observe(name, gen)

    method.__name__ = fn.__name__
    method.__qualname__ = fn.__qualname__
    method.__doc__ = fn.__doc__
    return method


for _op in _VFS_OPS:
    setattr(_MountBase, _op, _as_root_op(_op, getattr(_MountBase, _op)))
del _op


class FuseMount(_MountBase):
    """A user-space (FUSE) mount: costly crossings, user-space-held locks."""

    def __init__(self, inner: VFSClient, node: Node,
                 params: MountParams = FUSE_DEFAULTS):
        super().__init__(inner, node, params)


class KernelMount(_MountBase):
    """An in-kernel client mount: near-free crossings, no user-space locks."""

    def __init__(self, inner: VFSClient, node: Node,
                 params: MountParams = KERNEL_DEFAULTS):
        super().__init__(inner, node, params)
