"""CephFS baseline: a centralized-MDS distributed file system over RADOS.

Every metadata operation is a round trip to the MDS cluster
(:class:`~repro.baselines.mds.MDSCluster`); file data is striped into 4 MB
RADOS objects and cached client-side in a page cache (write-back +
read-ahead — 8 MB max for the kernel mount, 128 KB for ceph-fuse, which is
exactly the asymmetry behind Fig. 6(a)'s READ results). Capabilities that
let clients cache file data are modelled with the same lease machinery as
ArkFS's read/write leases, revoked by the MDS on conflicting opens.

Mount types:
* CephFS-K — :class:`~repro.posix.fuse.KernelMount` (cheap crossings).
* CephFS-F — :class:`~repro.posix.fuse.FuseMount` with ceph-fuse's global
  client lock (the ``client_lock`` serialization that keeps it slow).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.cache import DataObjectCache
from ..core.datapath import LeasedDataPath, OpenFile, OpenState
from ..core.filelease import READ, FileLeaseService
from ..core.inode_rules import FOLLOWS_FINAL, permits
from ..core.prt import PRT
from ..core.types import Inode, InoAllocator
from ..objectstore.base import ObjectStore
from ..objectstore.cluster import ClusterObjectStore
from ..objectstore.memory import InMemoryObjectStore
from ..objectstore.profiles import MiB, RADOS_PROFILE, StoreProfile
from ..posix import path as pathmod
from ..posix.acl import Acl
from ..posix.errors import (AlreadyExists, InvalidArgument, IsADirectory,
                            UnsupportedOperation)
from ..posix.fuse import (
    FUSE_DEFAULTS,
    KERNEL_DEFAULTS,
    FuseMount,
    KernelMount,
    MountParams,
)
from ..posix.types import Credentials, OpenFlags
from ..posix.vfs import FileHandle, VFSClient
from ..sim.engine import SimGen, Simulator
from ..sim.network import NetParams, Network, Node
from .mds import CEPH_MDS, MDSCluster, MDSParams
from .namespace import Namespace

__all__ = ["CephLikeClient", "CephFSCluster", "build_cephfs",
           "CephClientParams"]


@dataclass(frozen=True)
class CephClientParams:
    """Client-side knobs for a Ceph-like DFS."""

    object_size: int = 4 * MiB
    cache_capacity: int = 256 * MiB
    max_readahead: int = 8 * MiB       # kernel-mount default
    caps_lease: float = 5.0
    client_cpu_per_op: float = 4e-6
    fail_reads: bool = False           # MarFS interactive-mount READ errors


class CephLikeClient(LeasedDataPath, VFSClient):
    """One client of a centralized-MDS file system (CephFS or MarFS).

    File data runs ArkFS's leased data path (:mod:`repro.core.datapath`):
    its leases are the MDS's capabilities (``fleases``, one table for the
    whole cluster), and size/mtime are published with an MDS round trip.
    """

    def __init__(self, sim: Simulator, node: Node, mds: MDSCluster,
                 prt: PRT, caps: FileLeaseService,
                 params: CephClientParams):
        self.sim = sim
        self.node = node
        self.mds = mds
        self.prt = prt
        self.fleases = caps
        self.params = params
        self._open_dirs: Dict[int, int] = {}   # stays empty: see datapath
        self._open_files: Dict[int, OpenFile] = {}
        self.name = node.name
        self.ns = mds.namespace
        if params.fail_reads:    # MarFS: no branch in the shared read
            self.read = self._failed_read
        self.cache = DataObjectCache(
            sim, prt, node, entry_size=params.object_size,
            capacity_bytes=params.cache_capacity,
            max_readahead=params.max_readahead,
        )

    # -- plumbing -----------------------------------------------------------

    def _cpu(self) -> SimGen:
        yield from self.node.work(self.params.client_cpu_per_op)

    def _mds(self, dir_key: int, mutate, weight: float = 1.0) -> SimGen:
        yield from self._cpu()
        return (yield from self.mds.call(self.node, dir_key, mutate, weight))

    @staticmethod
    def _dirkey(path: str) -> int:
        """Deterministic subtree-partitioning key: the parent directory."""
        parts = pathmod.split_path(path)
        parent = "/" + "/".join(parts[:-1]) if len(parts) > 1 else "/"
        return zlib.crc32(parent.encode())

    # -- VFS: namespace ---------------------------------------------------------

    def lookup(self, creds: Credentials, dir_path: str, name: str) -> SimGen:
        return self._at_inode(creds, pathmod.join(dir_path, name), "lookup",
                              Inode.stat)

    def _at_parent(self, creds, path: str, fn) -> SimGen:
        """One MDS round trip: ``fn(parent ino, name)`` of ``path``'s final
        name, which is not followed."""
        parts = pathmod.split_path(path)

        def mutate():
            return fn(*self.ns.resolve_parent(creds, parts))

        return (yield from self._mds(self._dirkey(path), mutate))

    def mkdir(self, creds: Credentials, path: str, mode: int = 0o777) -> SimGen:
        if not pathmod.split_path(path):
            raise AlreadyExists("/")
        now = self.sim.now
        yield from self._at_parent(creds, path, lambda parent, name: (
            self.ns.mkdir(creds, parent, name, mode, now)))

    def rmdir(self, creds: Credentials, path: str) -> SimGen:
        if not pathmod.split_path(path):
            raise InvalidArgument("/", "cannot rmdir the root")
        now = self.sim.now
        yield from self._at_parent(creds, path, lambda parent, name: (
            self.ns.rmdir(creds, parent, name, now)))

    def readdir(self, creds: Credentials, path: str) -> SimGen:
        parts = pathmod.split_path(path)

        def mutate():
            return self.ns.readdir(creds, self.ns.resolve(creds, parts))

        return (yield from self._mds(self._dirkey(path), mutate))

    def unlink(self, creds: Credentials, path: str) -> SimGen:
        now = self.sim.now
        inode = yield from self._at_parent(creds, path, lambda parent, name: (
            self.ns.unlink(creds, parent, name, now)))
        yield from self.cache.invalidate(inode.ino, flush_dirty=False)
        self.fleases.forget_file(inode.ino)
        if inode.size > 0:
            # CephFS moves unlinked inodes to the stray directory and purges
            # the RADOS objects asynchronously.
            self.sim.process(self.prt.delete_data(inode.ino, src=self.node),
                             name=f"purge:{inode.ino:x}")

    def rename(self, creds: Credentials, src: str, dst: str) -> SimGen:
        sparts, dparts = pathmod.split_path(src), pathmod.split_path(dst)
        if not sparts or not dparts:
            raise InvalidArgument(src, "cannot rename the root")
        if pathmod.is_ancestor(pathmod.normalize(src), pathmod.normalize(dst)):
            raise InvalidArgument(dst, "destination inside source")
        now = self.sim.now

        def mutate():
            sp, sname = self.ns.resolve_parent(creds, sparts)
            dp, dname = self.ns.resolve_parent(creds, dparts)
            return self.ns.rename(creds, sp, sname, dp, dname, now)

        removed = yield from self._mds(self._dirkey(src), mutate, weight=1.5)
        if removed is not None and removed.size > 0:
            yield from self.prt.delete_data(removed.ino, src=self.node)

    def _at_inode(self, creds, path: str, verb: str, fn) -> SimGen:
        """One MDS round trip: ``fn`` of the inode ``path`` names, a final
        symlink followed if ``verb`` is in ``FOLLOWS_FINAL``."""
        parts = pathmod.split_path(path)

        def mutate():
            return fn(self.ns.node(self.ns.resolve(
                creds, parts, verb in FOLLOWS_FINAL)).inode)

        return (yield from self._mds(self._dirkey(path), mutate))

    def stat(self, creds: Credentials, path: str) -> SimGen:
        return self._at_inode(creds, path, "stat", Inode.stat)

    def lstat(self, creds: Credentials, path: str) -> SimGen:
        return self._at_inode(creds, path, "lstat", Inode.stat)

    def access(self, creds: Credentials, path: str, want: int) -> SimGen:
        return self._at_inode(creds, path, "access",
                              lambda inode: permits(inode, creds, want))

    # -- VFS: open / data ------------------------------------------------------------

    def open(self, creds: Credentials, path: str, flags: OpenFlags,
             mode: int = 0o666) -> SimGen:
        parts = pathmod.split_path(path)
        if not parts:
            raise IsADirectory("/")
        now = self.sim.now
        # A final link is followed to its target's parent and name (O_CREAT
        # makes a dangling one's target), but O_CREAT|O_EXCL finds the link.
        follow = "open" in FOLLOWS_FINAL and not (
            flags & OpenFlags.O_CREAT and flags & OpenFlags.O_EXCL)

        def mutate():
            stack, name, _ = self.ns.walk(creds, parts, follow)
            if name is None:
                raise IsADirectory(path)
            parent = stack[-1]
            inode = self.ns.create(creds, parent, name, flags, mode, now)[0]
            return parent, name, inode

        parent, name, inode = yield from self._mds(self._dirkey(path), mutate)
        if flags & OpenFlags.O_TRUNC and inode.size > 0:
            old = inode.size
            inode.size = 0
            inode.mtime = inode.ctime = now
            yield from self._truncate_file_data(inode.ino, old, 0)
        grant = yield from self.fleases.acquire(inode.ino, self.name, READ)
        handle = FileHandle(inode.ino, flags, creds)
        f = self._opened(handle, parent, name, inode, grant)
        if f.wrote and flags & OpenFlags.O_TRUNC:  # bytes it could not see
            yield from self._truncated(inode.ino, inode.size)
        return handle

    # Hooks of the leased data path: a capability comes from the MDS's
    # lease table, and size/mtime are published at the MDS — except after
    # a DIRECT write, which updates the namespace with no round trip.

    def _request_lease(self, handle: FileHandle, st: OpenState,
                       want: str) -> SimGen:
        grant = yield from self.fleases.acquire(handle.ino, self.name, want)
        n = self.ns.nodes.get(handle.ino)
        return grant, None if n is None else n.inode.size

    def _publish(self, handle: FileHandle, st: OpenState) -> SimGen:
        def mutate():
            self.ns.update_size(handle.ino, st.file.size, st.file.mtime)
            return True

        return self._mds(handle.ino & 0xFFFFFFFF, mutate)

    def _publish_direct(self, handle: FileHandle, st: OpenState):
        self.ns.update_size(handle.ino, st.file.size, st.file.mtime)
        return ()

    def truncate(self, creds: Credentials, path: str, size: int) -> SimGen:
        inode, old = yield from self._setattr(creds, path, {"size": size},
                                              "truncate")
        if size != old:  # a grow revokes too, so readers learn the size
            yield from self._truncate_file_data(inode.ino, old, size)
        yield from self._truncated(inode.ino, size)

    # -- VFS: attributes ----------------------------------------------------------------

    def _setattr(self, creds, path: str, changes: dict, verb: str) -> SimGen:
        """One MDS round trip; returns the inode and its size before."""
        now = self.sim.now
        return (yield from self._at_inode(creds, path, verb, lambda inode: (
            self.ns.setattr(creds, inode.ino, changes, now))))

    def chmod(self, creds: Credentials, path: str, mode: int) -> SimGen:
        yield from self._setattr(creds, path, {"mode": mode}, "chmod")

    def chown(self, creds: Credentials, path: str, uid: int, gid: int) -> SimGen:
        yield from self._setattr(creds, path, {"uid": uid, "gid": gid},
                                 "chown")

    def utimens(self, creds: Credentials, path: str, atime: float,
                mtime: float) -> SimGen:
        yield from self._setattr(creds, path, {"times": (atime, mtime)},
                                 "utimens")

    def getfacl(self, creds: Credentials, path: str) -> SimGen:
        return self._at_inode(creds, path, "getfacl", lambda inode: (
            inode.acl.copy() if inode.acl else Acl.from_mode(inode.mode)))

    def setfacl(self, creds: Credentials, path: str, acl: Acl) -> SimGen:
        yield from self._setattr(creds, path, {"acl": acl}, "setfacl")

    # -- VFS: links ------------------------------------------------------------------------

    def symlink(self, creds: Credentials, target: str, linkpath: str) -> SimGen:
        now = self.sim.now
        yield from self._at_parent(creds, linkpath, lambda parent, name: (
            self.ns.symlink(creds, parent, name, target, now)))

    def readlink(self, creds: Credentials, path: str) -> SimGen:
        def target(inode):
            if not inode.is_symlink:
                raise InvalidArgument(path, "not a symlink")
            return inode.symlink_target

        return self._at_inode(creds, path, "readlink", target)

    # -- durability -----------------------------------------------------------------------------

    def sync(self) -> SimGen:
        yield from self.cache.flush_all()

    def _failed_read(self, handle: FileHandle, size: int,
                     offset: Optional[int] = None) -> SimGen:
        """``read`` under ``fail_reads``, MarFS's interactive mount: "MarFS
        returns errors when we perform this phase in our environment"
        (Section IV-B)."""
        self._check_handle(handle)
        yield self.sim.timeout(0)
        raise UnsupportedOperation(detail="interactive-mount read failed")


@dataclass
class CephFSCluster:
    """A built CephFS (or MarFS) deployment."""

    sim: Simulator
    net: Network
    store: ObjectStore
    mds: MDSCluster
    clients: List[CephLikeClient] = field(default_factory=list)
    mounts: List[VFSClient] = field(default_factory=list)

    def client(self, i: int = 0) -> CephLikeClient:
        return self.clients[i]

    def mount(self, i: int = 0) -> VFSClient:
        return self.mounts[i]


#: ceph-fuse's global client mutex (the well-known client_lock bottleneck).
CEPH_FUSE_MOUNT = MountParams(crossing_latency=10e-6, dispatch_cpu=3e-6,
                              entry_ttl=1.0, lookup_locked=True,
                              global_lock_service=120e-6,
                              data_lock_service=15e-6)


def build_cephfs(
    sim: Simulator,
    n_clients: int = 1,
    mds_params: MDSParams = CEPH_MDS,
    client_params: CephClientParams = CephClientParams(),
    mount: str = "kernel",
    store: Optional[ObjectStore] = None,
    store_profile: Optional[StoreProfile] = None,
    net_params: Optional[NetParams] = None,
    client_cores: int = 32,
    functional: bool = False,
    seed: int = 0,
) -> CephFSCluster:
    """Assemble a CephFS-like cluster (``mount``: "kernel" or "fuse")."""
    net = Network(sim, net_params or NetParams())
    if store is None:
        if functional:
            store = InMemoryObjectStore(sim)
        else:
            store = ClusterObjectStore(sim, store_profile or RADOS_PROFILE,
                                       net=net)
    alloc = InoAllocator(seed=seed)
    namespace = Namespace(alloc, now=sim.now)
    mds = MDSCluster(sim, net, namespace, mds_params)
    prt = PRT(store, client_params.object_size)

    cluster = CephFSCluster(sim=sim, net=net, store=store, mds=mds)
    registry: Dict[str, CephLikeClient] = {}

    def revoke_cb(holder: str, ino: int, size: Optional[int] = None) -> SimGen:
        client = registry[holder]
        # Cap revocation: an MDS-to-client message, then the holder's side.
        yield from net.send(mds.mds[0].node, client.node, 128)
        yield from client._revoked(ino, size)

    caps = FileLeaseService(sim, client_params.caps_lease, revoke_cb)
    for i in range(n_clients):
        node = Node(sim, f"ceph-client{i}", cores=client_cores, net=net)
        client = CephLikeClient(sim, node, mds, prt, caps, client_params)
        registry[node.name] = client
        cluster.clients.append(client)
        if mount == "kernel":
            cluster.mounts.append(KernelMount(client, node, KERNEL_DEFAULTS))
        else:
            cluster.mounts.append(FuseMount(client, node, CEPH_FUSE_MOUNT))
    return cluster
