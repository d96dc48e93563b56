"""Metadata server (cluster) timing model.

Centralized DFS baselines (CephFS, MarFS) serve every metadata operation at
a dedicated MDS. The performance phenomena the paper measures come from:

* the network round trip from client to MDS for *every* metadata op;
* MDS CPU saturation (a single MDS caps aggregate throughput — Fig. 1);
* lock/journal contention that makes per-op service time *grow* with the
  number of concurrent client sessions, collapsing throughput at high
  client counts (the Fig. 1 shape beyond ~4 clients);
* with multiple MDSs, dynamic subtree partitioning: requests reaching the
  wrong MDS get forwarded (extra hop + extra service), and periodic load
  rebalancing migrates subtrees, stalling the participants — why 16 MDSs
  buy only ~2.4–3.2x in the paper (Figs. 4, 7).

The functional namespace mutation is executed *inside* the MDS service
section, so what clients observe is exactly what the MDS has applied.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, List

from ..obs.trace import span as _span
from ..sim.engine import Interrupt, SimGen, Simulator
from ..sim.network import Network, Node
from ..sim.resources import Resource
from .namespace import Namespace

__all__ = ["MDSParams", "MDSCluster", "CEPH_MDS", "MARFS_MDS"]


def _svc_timeout(sim: Simulator, tr, name: str, delay: float) -> SimGen:
    """MDS service time, attributed as service when traced."""
    if delay <= 0:
        yield sim.timeout(0)
    elif tr is not None:
        with tr.span(name, "svc"):
            yield sim.timeout(delay)
    else:
        yield sim.timeout(delay)


@dataclass(frozen=True)
class MDSParams:
    """Calibration knobs for one MDS deployment."""

    n_mds: int = 1
    base_service: float = 50e-6       # CPU seconds per metadata op
    service_slots: int = 1            # mutations serialize on the MDS journal
    contention_alpha: float = 0.015   # service inflation per waiting session
    contention_knee: int = 4          # sessions before inflation kicks in
    forward_prob: float = 0.45        # multi-MDS: request hits wrong MDS
    forward_hop: float = 150e-6       # extra latency for a forwarded request
    rebalance_interval: float = 4.0   # dynamic subtree partitioning period
    rebalance_pause: float = 0.050    # MDS stalls this long per rebalance
    # Multi-MDS hierarchical locking: a fraction of ops must take a
    # distributed lock at the subtree's authority near the root, which
    # keeps N MDSs from scaling linearly (the paper's ≤3.24x at 16 MDSs).
    peer_lock_prob: float = 0.75
    peer_lock_weight: float = 0.8     # of base_service, spent at MDS 0
    rpc_bytes: int = 320              # request/response wire size


#: CephFS MDS defaults (calibrated; see EXPERIMENTS.md).
CEPH_MDS = MDSParams()

#: MarFS metadata path: two SpectrumScale NSD/metadata nodes, heavier ops.
MARFS_MDS = MDSParams(n_mds=2, base_service=110e-6, service_slots=1,
                      contention_alpha=0.02, forward_prob=0.5,
                      rebalance_interval=1e9)  # static: no rebalancing


class _MDS:
    """One metadata server: a bounded service queue with contention decay."""

    def __init__(self, sim: Simulator, index: int, net: Network,
                 params: MDSParams):
        self.index = index
        self.params = params
        self.node = Node(sim, f"mds{index}", cores=params.service_slots,
                         net=net)
        self.slots = Resource(sim, capacity=params.service_slots,
                              name=f"mds{index}.slots")
        self.active_sessions = 0
        self.ops_served = 0

    def service_time(self) -> float:
        """Per-op service grows once concurrent sessions exceed the knee —
        the lock/journal contention that collapses Fig. 1's curve."""
        p = self.params
        excess = max(0, self.active_sessions - p.contention_knee)
        return p.base_service * (1.0 + p.contention_alpha * excess)


class MDSCluster:
    """The metadata service: 1..N MDSs over one shared namespace."""

    def __init__(self, sim: Simulator, net: Network, namespace: Namespace,
                 params: MDSParams):
        self.sim = sim
        self.net = net
        self.namespace = namespace
        self.params = params
        self.mds: List[_MDS] = [
            _MDS(sim, i, net, params) for i in range(params.n_mds)
        ]
        self._hash_salt = 0x9E3779B9
        self._rng_state = 12345
        self._rebalancer = None
        if params.n_mds > 1 and params.rebalance_interval < 1e8:
            self._rebalancer = sim.process(self._rebalance_loop(),
                                           name="mds-rebalancer")

    # -- deterministic pseudo-randomness (no Math.random in sim) ---------------

    def _rand(self) -> float:
        self._rng_state = (1103515245 * self._rng_state + 12345) % (1 << 31)
        return self._rng_state / (1 << 31)

    def auth_mds(self, dir_key: int) -> _MDS:
        """Subtree partitioning: directories hash-assigned to MDSs."""
        h = zlib.crc32(f"{dir_key ^ self._hash_salt:x}".encode())
        return self.mds[h % len(self.mds)]

    def _rebalance_loop(self) -> SimGen:
        """Dynamic subtree partitioning: periodically reassign the hash salt
        (migrating subtrees) and stall every MDS for the migration pause."""
        try:
            while True:
                yield self.sim.timeout(self.params.rebalance_interval)
                self._hash_salt = (self._hash_salt * 31 + 17) & 0xFFFFFFFF
                for m in self.mds:
                    reqs = [m.slots.request() for _ in range(m.slots.capacity)]
                    for r in reqs:
                        yield r
                    yield self.sim.timeout(self.params.rebalance_pause)
                    for r in reqs:
                        m.slots.release(r)
        except Interrupt:
            return

    # -- the client-visible operation ------------------------------------------------

    def call(self, client_node: Node, dir_key: int,
             mutate: Callable[[], object], op_weight: float = 1.0) -> SimGen:
        """One metadata operation from a client.

        ``mutate`` runs the (synchronous) namespace change inside the MDS
        service section and its return value travels back to the client.
        FS errors raised by ``mutate`` propagate to the caller after the
        response trip, like any RPC error.
        """
        tr = self.sim._tracer
        target = self.auth_mds(dir_key)
        sp = _span(self.sim, "mds.call", "mds")
        try:
            # Client -> MDS request.
            yield from self.net.send(client_node, target.node,
                                     self.params.rpc_bytes)
            if len(self.mds) > 1 and self._rand() < self.params.forward_prob:
                # Wrong MDS: pay a forwarding hop to the authoritative one.
                yield from self._hop()
                yield from self.net.send(target.node, target.node, 0)
            if (len(self.mds) > 1 and target is not self.mds[0]
                    and self._rand() < self.params.peer_lock_prob):
                # Hierarchical locking: take the distributed lock at the
                # near-root authority before mutating — the shared bottleneck
                # that keeps multi-MDS clusters far from linear scaling.
                root = self.mds[0]
                yield from self._hop()
                root.active_sessions += 1
                req0 = yield from root.slots.acquire()
                try:
                    # Same lock/journal contention inflation as a local op:
                    # the root authority degrades as the whole cluster leans
                    # on it.
                    yield from _svc_timeout(
                        self.sim, tr, f"mds{root.index}.svc",
                        root.service_time() * self.params.peer_lock_weight)
                finally:
                    root.slots.release(req0)
                    root.active_sessions -= 1
            target.active_sessions += 1
            req = yield from target.slots.acquire()
            try:
                yield from _svc_timeout(self.sim, tr,
                                        f"mds{target.index}.svc",
                                        target.service_time() * op_weight)
                target.ops_served += 1
                result = mutate()
                error = None
            except Exception as exc:  # noqa: BLE001 - surfaces below
                result, error = None, exc
            finally:
                target.slots.release(req)
                target.active_sessions -= 1
            # MDS -> client response.
            yield from self.net.send(target.node, client_node,
                                     self.params.rpc_bytes)
        finally:
            sp.close()
        if error is not None:
            raise error
        return result

    def _hop(self) -> SimGen:
        """A forwarding hop, attributed as network time when traced."""
        tr = self.sim._tracer
        if tr is not None:
            with tr.span("mds.forward", "net"):
                yield self.sim.timeout(self.params.forward_hop)
        else:
            yield self.sim.timeout(self.params.forward_hop)

    @property
    def total_ops(self) -> int:
        return sum(m.ops_served for m in self.mds)
