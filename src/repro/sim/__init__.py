"""Discrete-event simulation substrate for the ArkFS reproduction.

Everything performance-related in this repository runs on this kernel:
file-system operations are generator coroutines driven by a
:class:`Simulator`, contending for :class:`Resource` CPU slots and
:class:`BandwidthPipe` links so that the paper's queueing effects (MDS
saturation, FUSE lock contention, read-ahead pipelining) emerge naturally.
"""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimGen,
    SimulationError,
    Simulator,
    Timeout,
)
from .network import NetParams, Network, Node, NodeDown, RpcError
from .resources import BandwidthPipe, Mutex, Request, Resource, Store, serve
from .stats import PhaseRecorder, PhaseResult, kernel_counters

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthPipe",
    "Event",
    "Interrupt",
    "Mutex",
    "NetParams",
    "Network",
    "Node",
    "NodeDown",
    "PhaseRecorder",
    "PhaseResult",
    "Process",
    "Request",
    "Resource",
    "RpcError",
    "SimGen",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "kernel_counters",
    "serve",
]
