"""Cluster network model: nodes, links, and RPC.

Nodes own a CPU :class:`~repro.sim.resources.Resource` and a NIC
:class:`~repro.sim.resources.BandwidthPipe`. Messages pay one-way latency
plus serialization time through both endpoints' NICs — the same three
scheduled segments whatever the size or the link's latency; RPCs run a
registered handler coroutine on the destination node. This models what the
paper calls "network round-trip overheads between clients and metadata
servers" and the gRPC traffic between ArkFS clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .engine import SimGen, Simulator
from .resources import BandwidthPipe, Resource

__all__ = ["NetParams", "Node", "Network", "RpcError", "NodeDown",
           "MessageDropped"]


class RpcError(Exception):
    """Transport-level RPC failure (destination down / unreachable)."""


class NodeDown(RpcError):
    """The destination node is not alive."""


class MessageDropped(NodeDown):
    """A message was lost in transit (fault injection).

    Subclasses :class:`NodeDown` because the sender cannot distinguish a
    lost message from a dead peer — it burns its RPC timeout and takes the
    same retry path either way."""


@dataclass(frozen=True)
class NetParams:
    """Link characteristics, defaulting to a 10 GbE LAN."""

    latency_s: float = 50e-6          # one-way propagation + stack latency
    bandwidth_bps: float = 10e9 / 8   # bytes/sec per NIC
    rpc_timeout_s: float = 1.0        # time wasted detecting a dead peer


def _no_work() -> SimGen:
    """``Node.work(0)``: finishes without yielding."""
    return
    yield  # pragma: no cover - marks this as a generator


class Node:
    """A machine in the cluster: CPU cores, a NIC, and an RPC dispatch table."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cores: int = 1,
        net: Optional["Network"] = None,
        nic_bps: Optional[float] = None,
    ):
        self.sim = sim
        self.name = name
        self.cpu = Resource(sim, capacity=cores, name=f"{name}.cpu")
        self.net = net
        bw = nic_bps if nic_bps is not None else (net.params.bandwidth_bps if net else 10e9 / 8)
        self.nic = BandwidthPipe(sim, bw, name=f"{name}.nic")
        self.alive = True
        self._handlers: Dict[str, Callable[..., SimGen]] = {}
        if net is not None:
            net.attach(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} alive={self.alive}>"

    def work(self, seconds: float) -> SimGen:
        """Consume this node's CPU for ``seconds`` (queueing if contended).

        Returns the generator to iterate rather than wrapping it in a frame
        of its own."""
        if seconds > 0:
            return self.cpu.use(seconds)
        return _no_work()

    def register(self, method: str, handler: Callable[..., SimGen]) -> None:
        """Register an RPC handler: a generator function ``handler(*args)``."""
        self._handlers[method] = handler

    def crash(self) -> None:
        """Mark the node dead: future RPCs to it fail after a timeout."""
        self.alive = False

    def restart(self) -> None:
        self.alive = True

    def call(
        self,
        target: "Node",
        method: str,
        *args: Any,
        req_size: int = 256,
        resp_size: int = 256,
    ) -> SimGen:
        """RPC from this node to ``target``; returns the handler's value.

        Application-level exceptions raised by the handler propagate to the
        caller (after paying the response network cost), mirroring how a gRPC
        error status travels back. Transport failures raise :class:`RpcError`.
        """
        assert self.net is not None, "node not attached to a network"
        sim = self.sim
        if not self.alive:
            raise NodeDown(f"caller {self.name} is down")
        if target is self:
            # Local dispatch: no network, but still runs the handler.
            handler = target._handlers[method]
            result = yield sim.process(handler(*args), name=method)
            return result
        net = self.net
        yield from net.send(self, target, req_size)
        if not target.alive:
            # Model the caller burning its RPC timeout discovering the death.
            yield self.sim.timeout(self.net.params.rpc_timeout_s)
            raise NodeDown(f"rpc {method!r}: node {target.name} is down")
        try:
            handler = target._handlers[method]
        except KeyError:
            raise RpcError(f"node {target.name} has no handler {method!r}") from None
        try:
            result = yield sim.process(handler(*args), name=method)
        except Exception:
            if target.alive and self.alive:
                yield from net.send(target, self, resp_size)
            raise
        if not target.alive:
            yield sim.timeout(net.params.rpc_timeout_s)
            raise NodeDown(f"rpc {method!r}: node {target.name} died mid-call")
        yield from net.send(target, self, resp_size)
        return result


class Network:
    """A flat cluster network with uniform latency and per-NIC bandwidth."""

    def __init__(self, sim: Simulator, params: Optional[NetParams] = None):
        self.sim = sim
        self.params = params or NetParams()
        self.nodes: Dict[str, Node] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        # Optional repro.faults.FaultPlan consulted per message; None (the
        # default) costs nothing — same contract as the span tracer.
        self.faults = None

    def attach(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.net = self

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def send(self, src: Node, dst: Node, size: int) -> SimGen:
        """Move ``size`` bytes from ``src`` to ``dst``: NIC serialization at
        both ends plus propagation latency."""
        self.messages_sent += 1
        self.bytes_sent += size
        if self.faults is not None:
            act = self.faults.on_message(src.name, dst.name, size)
            if act is not None:
                action, delay = act
                if action == "drop":
                    # The sender can't see the loss directly; it burns its
                    # RPC timeout before concluding the peer is unreachable.
                    yield self.sim.timeout(self.params.rpc_timeout_s)
                    raise MessageDropped(
                        f"message {src.name}->{dst.name} dropped ({size}B)")
                yield self.sim.timeout(delay)
        yield from src.nic.transfer(size)
        sim = self.sim
        tr = sim._active_proc.tracer
        lat = self.params.latency_s
        if tr is not None:
            with tr.span("net.lat", "net"):
                yield sim.timeout(lat)
        else:
            t = sim._timeout_acquire(lat)
            yield t
            sim._timeout_release(t)
        yield from dst.nic.transfer(size)
