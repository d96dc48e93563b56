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
from typing import Callable, Dict, Optional

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
    #
    # A request through the mount boundary costs one crossing and the
    # daemon's dispatch work. ``_pathop`` and ``_handleop`` each write that
    # out at their one request site: a helper generator would be one more
    # frame to resume under every hold of the request.

    def _under_global_lock(self, gen: SimGen) -> SimGen:
        """Run ``gen`` under the client-global mutex (ceph-fuse style)."""
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

    # -- root ops ------------------------------------------------------------------
    #
    # Every public VFS op is a root op ("vfs.<op>"). With any observability
    # installed (``sim._obs_ops``) the op's own frame calls the root-op
    # observer's ``begin`` when it starts running and ``end`` when it
    # finishes; the observer samples it, opens its root span, and feeds the
    # slow-op log and flight recorder, across ArkFS and every baseline alike
    # (they all sit behind a mount). That frame is the op's one mount frame
    # of its own: the LOOKUP walk and every request run as its loop and the
    # dentry-cache work as its epilogue, so a resume re-enters no other
    # mount frame (DESIGN §10).

    def _pathop(self, op: str, creds: Credentials, path: str, gen: SimGen,
                lock_parent: bool = False, walk_final: bool = True,
                tolerate_missing_final: bool = False,
                then: Optional[Callable[[str], None]] = None,
                src: Optional[str] = None) -> SimGen:
        """Root op ``op``: a LOOKUP for every non-cached component of
        ``path``, then one request carrying the operation ``gen``, then
        ``then`` (the dentry-cache epilogue) on the normalized path.

        The walk surfaces what the daemon raises (ENOENT, EACCES, ...)
        exactly as the kernel would. ``src`` is rename's source: walked
        first (strictly) and given to ``then`` first."""
        ob = self.sim._obs_ops
        token = None if ob is None else ob.begin(op)
        ok = False
        try:
            params = self.params
            walks = (((path, tolerate_missing_final),) if src is None
                     else ((src, False), (path, tolerate_missing_final)))
            last = walks[-1]
            for walk in walks:
                walked, tolerate = walk
                parts = pathmod.split_path(walked)
                n = len(parts) if walk_final else len(parts) - 1
                i = 0
                while True:
                    if i < n:
                        parent = "/" + "/".join(parts[:i]) if i else "/"
                        cur = parent.rstrip("/") + "/" + parts[i]
                        if self._dcache_valid(cur):
                            i += 1
                            continue
                    elif walk is not last:
                        break
                    # One request: the LOOKUP of parts[i], or past the
                    # last walk's components the operation's own.
                    self.request_count += 1
                    if params.crossing_latency > 0:
                        tr = self.sim._active_proc.tracer
                        if tr is not None:
                            with tr.span("fuse.crossing", "fuse"):
                                yield self.sim.timeout(
                                    params.crossing_latency)
                        else:
                            yield self.sim.timeout(params.crossing_latency)
                    if params.dispatch_cpu > 0:
                        yield from self.node.work(params.dispatch_cpu)
                    if i >= n:
                        break
                    # The daemon-side resolve, (optionally) dir-locked.
                    resolve = self.inner.lookup(creds, parent, parts[i])
                    if self._global_lock is not None:
                        resolve = self._under_global_lock(resolve)
                    try:
                        if params.lookup_locked:
                            lock = self._dir_lock(parent)
                            req = yield from lock.acquire()
                            try:
                                yield from resolve
                            finally:
                                lock.release(req)
                        else:
                            yield from resolve
                    except NotFound:
                        if not tolerate:
                            raise
                        i = n       # the rest of this path is not walked
                        continue
                    self._dcache_insert(cur)
                    i += 1
            if self._global_lock is not None:
                gen = self._under_global_lock(gen)
            if lock_parent:
                parent, _name = pathmod.parent_and_name(path)
                lock = self._dir_lock(parent)
                req = yield from lock.acquire()
                try:
                    result = yield from gen
                finally:
                    lock.release(req)
            else:
                result = yield from gen
            if then is not None:
                for walked, _tolerate in walks:
                    then(pathmod.normalize(walked))
            ok = True
        finally:
            if token is not None:
                ob.end(token, ok)
        return result

    def _handleop(self, op: str, gen: SimGen, nreq: int = 1,
                  data: bool = False) -> SimGen:
        """Root op ``op`` without a path walk: ``nreq`` requests, then the
        operation ``gen``. Each *data* request (``read``/``write``) also
        runs, for clients with a global mutex (ceph-fuse, MarFS
        interactive), a serialized section. This per-128KB serialization is
        why ceph-fuse bulk data movement collapses under multiple
        processes."""
        ob = self.sim._obs_ops
        token = None if ob is None else ob.begin(op)
        ok = False
        try:
            params = self.params
            for _ in range(nreq):
                # The request, written out (see "request cost plumbing").
                self.request_count += 1
                if params.crossing_latency > 0:
                    tr = self.sim._active_proc.tracer
                    if tr is not None:
                        with tr.span("fuse.crossing", "fuse"):
                            yield self.sim.timeout(params.crossing_latency)
                    else:
                        yield self.sim.timeout(params.crossing_latency)
                if params.dispatch_cpu > 0:
                    yield from self.node.work(params.dispatch_cpu)
                if data and self._global_lock is not None:
                    req = yield from self._global_lock.acquire()
                    try:
                        yield from self.node.work(params.effective_data_lock)
                    finally:
                        self._global_lock.release(req)
            result = yield from gen
            ok = True
        finally:
            if token is not None:
                ob.end(token, ok)
        return result

    # -- VFS implementation ------------------------------------------------------------

    def lookup(self, creds: Credentials, dir_path: str, name: str) -> SimGen:
        return self._handleop("vfs.lookup",
                              self.inner.lookup(creds, dir_path, name),
                              nreq=0)

    def mkdir(self, creds: Credentials, path: str, mode: int = 0o777) -> SimGen:
        return self._pathop("vfs.mkdir", creds, path,
                            self.inner.mkdir(creds, path, mode),
                            lock_parent=True, walk_final=False)

    def rmdir(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop("vfs.rmdir", creds, path,
                            self.inner.rmdir(creds, path), lock_parent=True,
                            then=self._dcache_drop)

    def open(self, creds: Credentials, path: str, flags: OpenFlags,
             mode: int = 0o666) -> SimGen:
        creating = bool(flags & OpenFlags.O_CREAT)
        return self._pathop("vfs.open", creds, path,
                            self.inner.open(creds, path, flags, mode),
                            lock_parent=creating,
                            tolerate_missing_final=creating,
                            then=self._dcache_insert if creating else None)

    def close(self, handle: FileHandle) -> SimGen:
        return self._handleop("vfs.close", self.inner.close(handle))

    def unlink(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop("vfs.unlink", creds, path,
                            self.inner.unlink(creds, path), lock_parent=True,
                            then=self._dcache_drop)

    def stat(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop("vfs.stat", creds, path,
                            self.inner.stat(creds, path))

    def lstat(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop("vfs.lstat", creds, path,
                            self.inner.lstat(creds, path))

    def readdir(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop("vfs.readdir", creds, path,
                            self.inner.readdir(creds, path))

    def rename(self, creds: Credentials, src: str, dst: str) -> SimGen:
        # The destination may not exist yet; the source must.
        return self._pathop("vfs.rename", creds, dst,
                            self.inner.rename(creds, src, dst),
                            tolerate_missing_final=True,
                            then=self._dcache_drop, src=src)

    def read(self, handle: FileHandle, size: int,
             offset: Optional[int] = None) -> SimGen:
        # The kernel splits large I/O into max_request-sized FUSE requests.
        nreq = max(1, -(-size // self.params.max_request))
        return self._handleop("vfs.read",
                              self.inner.read(handle, size, offset), nreq,
                              data=True)

    def write(self, handle: FileHandle, data: bytes,
              offset: Optional[int] = None) -> SimGen:
        nreq = max(1, -(-len(data) // self.params.max_request))
        return self._handleop("vfs.write",
                              self.inner.write(handle, data, offset), nreq,
                              data=True)

    def fsync(self, handle: FileHandle) -> SimGen:
        return self._handleop("vfs.fsync", self.inner.fsync(handle))

    def truncate(self, creds: Credentials, path: str, size: int) -> SimGen:
        return self._pathop("vfs.truncate", creds, path,
                            self.inner.truncate(creds, path, size))

    def chmod(self, creds: Credentials, path: str, mode: int) -> SimGen:
        return self._pathop("vfs.chmod", creds, path,
                            self.inner.chmod(creds, path, mode))

    def chown(self, creds: Credentials, path: str, uid: int, gid: int) -> SimGen:
        return self._pathop("vfs.chown", creds, path,
                            self.inner.chown(creds, path, uid, gid))

    def utimens(self, creds: Credentials, path: str, atime: float,
                mtime: float) -> SimGen:
        return self._pathop("vfs.utimens", creds, path,
                            self.inner.utimens(creds, path, atime, mtime))

    def access(self, creds: Credentials, path: str, want: int) -> SimGen:
        return self._pathop("vfs.access", creds, path,
                            self.inner.access(creds, path, want))

    def symlink(self, creds: Credentials, target: str, linkpath: str) -> SimGen:
        return self._pathop("vfs.symlink", creds, linkpath,
                            self.inner.symlink(creds, target, linkpath),
                            lock_parent=True, walk_final=False)

    def readlink(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop("vfs.readlink", creds, path,
                            self.inner.readlink(creds, path))

    def statfs(self, creds: Credentials) -> SimGen:
        return self._handleop("vfs.statfs", self.inner.statfs(creds))

    def getfacl(self, creds: Credentials, path: str) -> SimGen:
        return self._pathop("vfs.getfacl", creds, path,
                            self.inner.getfacl(creds, path))

    def setfacl(self, creds: Credentials, path: str, acl) -> SimGen:
        return self._pathop("vfs.setfacl", creds, path,
                            self.inner.setfacl(creds, path, acl))


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
