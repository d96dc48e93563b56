"""Baseline file systems the paper compares ArkFS against.

* :mod:`cephfs` — CephFS with 1..N MDSs, kernel (-K) and FUSE (-F) mounts.
* :mod:`marfs` — MarFS's interactive FUSE mount over two metadata nodes.
* :mod:`s3common` — the path-keyed namespace (``PathKeyedClient``: full-path
  keys, a HEAD per lookup, LIST-based readdir) that the next two share.
* :mod:`s3fs` — s3fs-fuse's data path: whole-object rewrites through a
  slow disk staging cache, O(subtree) directory renames.
* :mod:`goofys` — goofys's data path: streaming multipart writes, 400 MB
  read-ahead, relaxed POSIX.
* :mod:`mds` / :mod:`namespace` — the centralized metadata substrate the
  first two share.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from ..objectstore.base import ObjectStore
from ..objectstore.cluster import ClusterObjectStore
from ..objectstore.memory import InMemoryObjectStore
from ..objectstore.profiles import S3_PROFILE, StoreProfile
from ..posix.fuse import FUSE_DEFAULTS, FuseMount, MountParams
from ..sim.engine import Simulator
from ..sim.network import NetParams, Network, Node

from .cephfs import (
    CEPH_FUSE_MOUNT,
    CephClientParams,
    CephFSCluster,
    CephLikeClient,
    build_cephfs,
)
from .goofys import GoofysClient, GoofysParams
from .marfs import MARFS_MOUNT, build_marfs
from .mds import CEPH_MDS, MARFS_MDS, MDSCluster, MDSParams
from .namespace import Namespace, NSNode
from .s3common import Bucket, FileAttrs, key_of, list_names
from .s3fs import S3FSClient

__all__ = [
    "Bucket",
    "CEPH_FUSE_MOUNT",
    "CEPH_MDS",
    "CephClientParams",
    "CephFSCluster",
    "CephLikeClient",
    "FileAttrs",
    "GoofysClient",
    "GoofysParams",
    "MARFS_MDS",
    "MARFS_MOUNT",
    "MDSCluster",
    "MDSParams",
    "Namespace",
    "NSNode",
    "S3FSClient",
    "S3Cluster",
    "build_cephfs",
    "build_goofys",
    "build_marfs",
    "build_s3fs",
    "key_of",
    "list_names",
]


@dataclass
class S3Cluster:
    """A built S3-backed file-system deployment (s3fs or goofys)."""

    sim: Simulator
    net: Network
    store: ObjectStore
    bucket: Bucket
    clients: List = field(default_factory=list)
    mounts: List[FuseMount] = field(default_factory=list)

    def client(self, i: int = 0):
        return self.clients[i]

    def mount(self, i: int = 0) -> FuseMount:
        return self.mounts[i]


def _mount_bucket(
    client_cls: type,
    client_args: tuple,
    sim: Simulator,
    n_clients: int,
    store: Optional[ObjectStore] = None,
    store_profile: Optional[StoreProfile] = None,
    net_params: Optional[NetParams] = None,
    mount_params: MountParams = FUSE_DEFAULTS,
    client_cores: int = 32,
    functional: bool = False,
) -> S3Cluster:
    """Assemble N ``client_cls(sim, node, bucket, *client_args)`` mounts of
    one bucket (a timed S3-profile cluster store, or an in-memory one when
    ``functional``)."""
    net = Network(sim, net_params or NetParams())
    if store is None:
        store = (InMemoryObjectStore(sim) if functional else
                 ClusterObjectStore(sim, store_profile or S3_PROFILE, net=net))
    bucket = Bucket(store)
    cluster = S3Cluster(sim=sim, net=net, store=store, bucket=bucket)
    for i in range(n_clients):
        node = Node(sim, f"{client_cls.FS}-client{i}", cores=client_cores,
                    net=net)
        client = client_cls(sim, node, bucket, *client_args)
        cluster.clients.append(client)
        cluster.mounts.append(FuseMount(client, node, mount_params))
    return cluster


def build_s3fs(sim: Simulator, n_clients: int = 1, **kw) -> S3Cluster:
    """Assemble N s3fs mounts of one bucket (options: ``_mount_bucket``)."""
    return _mount_bucket(S3FSClient, (), sim, n_clients, **kw)


def build_goofys(sim: Simulator, n_clients: int = 1,
                 params: GoofysParams = GoofysParams(), **kw) -> S3Cluster:
    """Assemble N goofys mounts of one bucket (options: ``_mount_bucket``)."""
    return _mount_bucket(GoofysClient, (params,), sim, n_clients, **kw)
