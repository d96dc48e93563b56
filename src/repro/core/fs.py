"""ArkFS cluster assembly.

Wires together the pieces the paper's Figure 2 shows: an object-storage
backend (RADOS-like or S3-like), the lease service (a ring of manager
nodes; one, as in the paper, by default), and N client nodes each running
an :class:`~repro.core.client.ArkFSClient` (optionally behind a FUSE mount
model — ArkFS is implemented with FUSE, so benchmarks mount it that way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from ..objectstore.base import ObjectStore
from ..objectstore.cluster import ClusterObjectStore
from ..objectstore.memory import InMemoryObjectStore
from ..objectstore.profiles import (RADOS_PROFILE, S3_COLD_PROFILE,
                                    StoreProfile)
from ..objectstore.retrying import RetryingObjectStore
from ..objectstore.tiered import TieredObjectStore
from ..posix.fuse import FUSE_DEFAULTS, FuseMount, MountParams
from ..posix.types import FileType
from ..sim.engine import Simulator
from ..sim.network import NetParams, Network, Node
from ..sim.resources import Resource
from .client import ArkFSClient
from .lease import LeaseManager, LeaseManagerCluster
from .pack import PackedPRT, pack_layer
from .params import ArkFSParams, DEFAULT_PARAMS
from .prt import PRT
from .qos import QosManager, WFQResource, qos_layer
from .retry import RetryPolicy
from .sharded_client import ShardedClient
from .types import Inode, InoAllocator, ROOT_INO

__all__ = ["ArkFSCluster", "build_arkfs", "mkfs"]


def mkfs(sim: Simulator, store: ObjectStore, mode: int = 0o777) -> None:
    """Initialize an empty file system: write the root directory inode."""
    root = Inode(ino=ROOT_INO, ftype=FileType.DIRECTORY, mode=mode,
                 uid=0, gid=0, atime=sim.now, mtime=sim.now, ctime=sim.now)
    sim.run_process(store.put(PRT.key_inode(ROOT_INO), root.to_bytes()),
                    name="mkfs")


@dataclass
class ArkFSCluster:
    """A built ArkFS deployment: clients, mounts, lease ring, backend."""

    sim: Simulator
    net: Network
    store: ObjectStore
    prt: PRT
    params: ArkFSParams
    lease_service: LeaseManagerCluster   # the manager ring (>= 1 members)
    qos: object = None                   # QosManager when params.qos_enabled
    clients: List[ArkFSClient] = field(default_factory=list)
    mounts: List[FuseMount] = field(default_factory=list)

    @property
    def lease_manager(self) -> LeaseManager:
        """The ring's first member — the paper's single lease manager."""
        return self.lease_service.managers[0]

    def client(self, i: int = 0) -> ArkFSClient:
        return self.clients[i]

    def mount(self, i: int = 0) -> FuseMount:
        """The FUSE mount view of client ``i`` (what applications use)."""
        return self.mounts[i]


def build_arkfs(
    sim: Simulator,
    n_clients: int = 1,
    params: ArkFSParams = DEFAULT_PARAMS,
    store: Optional[ObjectStore] = None,
    store_profile: Optional[StoreProfile] = None,
    net_params: Optional[NetParams] = None,
    mount_params: MountParams = FUSE_DEFAULTS,
    client_cores: int = 32,
    functional: bool = False,
    seed: int = 0,
    n_lease_managers: int = 1,
    faults: Optional["FaultPlan"] = None,
    cold_profile: Optional[StoreProfile] = None,
) -> ArkFSCluster:
    """Build a full ArkFS cluster.

    ``functional=True`` uses the zero-latency in-memory store (for semantic
    tests); otherwise a :class:`ClusterObjectStore` with ``store_profile``
    (RADOS-like by default).

    The lease service is a :class:`LeaseManagerCluster` of
    ``n_lease_managers`` nodes (one, as in the paper's evaluation setup, by
    default): directories hash-partition across managers, authority carries
    a monotonic per-range epoch, and every client checks its journal
    commits against the ring's fencing registry so a deposed leader's
    stale-epoch commits are refused (see ``repro.core.lease``).

    ``faults`` (a :class:`repro.faults.FaultPlan`) slides a fault-injection
    shim beneath the store and the network, and directly above each store
    shim the :class:`RetryingObjectStore` that absorbs its transients under
    ``params.store_retry_*``. When it is ``None`` — the default — no
    wrapper is installed at all around a built-in backend, so fault-free
    runs are structurally guaranteed to be bit-identical to a build without
    this parameter. A caller-supplied ``store`` always gets the retry layer.
    """
    net = Network(sim, net_params or NetParams())
    # Multi-tenant QoS plane: built first, because it decides the queue
    # discipline the stores' OSD queues and the lease managers' CPUs are
    # built with — tenant-weighted fair queueing instead of the default
    # FIFO. Nothing downstream asks which one it got.
    qos = None
    queue = Resource
    if params.qos_enabled:
        qos = QosManager(sim, params)
        queue = partial(WFQResource, weight_of=qos.weight_of)
    # The cluster's one retry policy (``store_retry_*``). Store verbs get
    # it as a store layer, below; clients keep it for what is not a store
    # verb (lease RPCs, QoS admission).
    retry = RetryPolicy.from_params(sim, params)

    def backend(profile: StoreProfile) -> ObjectStore:
        if functional:
            return InMemoryObjectStore(sim)
        return ClusterObjectStore(sim, profile, net=net, queue=queue)

    def shim(inner: ObjectStore, foreign: bool = False) -> ObjectStore:
        """The fault shim and, riding directly above it, the retry layer
        that absorbs the transients it injects. A built-in backend never
        raises one by itself; a caller's (``foreign``) backend may."""
        if faults is not None:
            from ..faults.store import FaultyObjectStore
            inner = FaultyObjectStore(inner, faults)
        elif not foreign:
            return inner
        return RetryingObjectStore(inner, retry)

    if faults is not None:
        net.faults = faults
        faults.attach(sim)
    if store is None and params.tier_enabled:
        # Hot/cold tiered backend: a fast RADOS-like tier fronting a cold
        # capacity store. The fault shim (and its retry layer) wraps *each*
        # tier so every stage/drain/promote/demote store op is a crash
        # point and a retried verb, while the tier itself stays unwrapped —
        # crashcheck reaches lose_hot() and the dirty-key bookkeeping
        # directly on ``cluster.store``.
        store = TieredObjectStore(
            sim,
            shim(backend(store_profile or RADOS_PROFILE)),
            shim(backend(cold_profile or S3_COLD_PROFILE)),
            hot_capacity=params.tier_hot_capacity,
            high_watermark=params.tier_high_watermark,
            low_watermark=params.tier_low_watermark,
            dirty_max=params.tier_dirty_max,
            drain_interval=params.tier_drain_interval,
            drain_batch=params.tier_drain_batch,
            promote_max=params.tier_promote_max,
        )
    elif store is None:
        store = shim(backend(store_profile or RADOS_PROFILE))
    else:
        store = shim(store, foreign=True)
    prt = (PackedPRT if params.pack_enabled else PRT)(
        store, params.data_object_size)
    mkfs(sim, store)

    # The paper's one manager is "lease-mgr"; more (its stated future work)
    # are numbered.
    mgr_names = (["lease-mgr"] if n_lease_managers <= 1 else
                 [f"lease-mgr{i}" for i in range(n_lease_managers)])
    service = LeaseManagerCluster(
        sim, [Node(sim, name, cores=4, net=net, queue=queue)
              for name in mgr_names], params)
    if qos is not None:
        # Handlers tag their CPU work with the tenant of the client named
        # on the lease RPC.
        for m in service.managers:
            m.tenants = qos.client_tenant

    alloc = InoAllocator(seed=seed)
    cluster = ArkFSCluster(sim=sim, net=net, store=store, prt=prt,
                           params=params, lease_service=service, qos=qos)
    names = [f"client{i}" for i in range(n_clients)]
    # Directory sharding, packing and QoS tenancy are client classes, chosen
    # once; shard-lease placement hashes over the same population everywhere.
    client_class, layers = ArkFSClient, {}
    if params.shards_enabled:
        client_class, layers["peers"] = ShardedClient, names
    if params.pack_enabled:
        client_class = pack_layer(client_class)
    if qos is not None:
        client_class, layers["qos"] = qos_layer(client_class), qos
    for name in names:
        node = Node(sim, name, cores=client_cores, net=net)
        client = client_class(sim, node, prt, params, service, alloc,
                              retry=retry, **layers)
        cluster.clients.append(client)
        cluster.mounts.append(FuseMount(client, node, mount_params))
    return cluster
