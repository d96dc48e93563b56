"""Multi-tenant QoS plane: token buckets, weighted fair queueing, admission.

ArkFS is shared archival infrastructure: thousands of tenants funnel
through a handful of OSD queues and one lease-manager CPU, and a single
aggressive tenant can otherwise starve everyone (ROADMAP item 2; CFS and
λFS in PAPERS.md make the same argument for container and serverless
tenants). This module supplies the three classic mechanisms:

* :class:`TokenBucket` — per-tenant rate limiting for metadata ops/s and
  data bytes/s with a configurable burst. Borrow semantics: a request is
  always charged immediately and the caller sleeps off any deficit, so
  for costs ≤ burst the service observed over any window ``(t0, t1]``
  never exceeds ``rate × (t1 - t0) + burst``.
* :class:`WFQResource` — a drop-in :class:`~repro.sim.resources.Resource`
  whose queue is ordered by start-time fair queueing (SFQ) finish tags
  instead of FIFO. Per-tenant order is preserved (tags within a tenant
  are strictly increasing) while backlogged tenants share capacity in
  proportion to their weights. ``build_arkfs`` builds the OSD service
  queues and the lease-manager CPUs from it when ``qos_enabled``.
* :class:`QosManager` — pure cluster bookkeeping (no events of its own,
  like ``FencingRegistry``): tenant registry, weights, buckets, bounded
  per-tenant in-flight ops. Admission overflow raises :class:`TenantBusy`
  (EAGAIN) which the client layer retries through its retry policy.
* :class:`QosClient` — the client layer that meters one gateway client's
  ops against the manager: admission of top-level authority ops and the
  byte throttle of each data op.

Everything here is built only when ``ArkFSParams.qos_enabled`` is True;
the default-off configuration builds plain FIFO queues and clients
without the :class:`QosClient` layer, and is pinned bit-identical by
``tests/core/test_off_identity.py``.
"""

from __future__ import annotations

import errno as _errno
import heapq
from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..posix.errors import FSError
from ..sim.engine import SimGen, Simulator, SimulationError
from ..sim.resources import Request, Resource, _PENDING

__all__ = [
    "QosClient",
    "QosManager",
    "TenantBusy",
    "TokenBucket",
    "WFQRequest",
    "WFQResource",
    "qos_layer",
]


class TenantBusy(FSError):
    """Admission control rejected the op: tenant at max in-flight ops.

    EAGAIN-style backpressure — transient by construction, retried through
    the client's :class:`~repro.core.retry.RetryPolicy`.
    """

    errno = _errno.EAGAIN


class TokenBucket:
    """Classic token bucket with borrow semantics and an explicit clock.

    The bucket never blocks by itself: :meth:`delay_for` charges ``cost``
    tokens at time ``now`` and returns how long the caller must sleep
    before proceeding (0.0 when the bucket covers the cost). Clock-free so
    property tests can drive it directly; in the sim the caller passes
    ``sim.now``.
    """

    __slots__ = ("rate", "burst", "level", "last")

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise SimulationError("token bucket rate/burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.level = float(burst)
        self.last = 0.0

    def delay_for(self, cost: float, now: float) -> float:
        """Charge ``cost`` tokens; return seconds to wait before proceeding."""
        if now > self.last:
            lvl = self.level + (now - self.last) * self.rate
            self.level = lvl if lvl < self.burst else self.burst
            self.last = now
        self.level -= cost
        if self.level >= 0.0:
            return 0.0
        return -self.level / self.rate


class WFQRequest(Request):
    """A tenant-tagged claim on a :class:`WFQResource` slot."""

    __slots__ = ("tenant", "cost", "start", "finish")

    def __init__(self, resource: "WFQResource"):
        super().__init__(resource)
        self.tenant: Optional[str] = None
        self.cost = 0.0
        self.start = 0.0
        self.finish = 0.0


class WFQResource(Resource):
    """Start-time fair queueing (SFQ) replacement for a FIFO Resource.

    Each queued request carries a virtual *finish tag*
    ``start + cost / weight(tenant)`` with
    ``start = max(vtime, last_finish[tenant])``; the queue grants the
    smallest finish tag first and advances virtual time to the dispatched
    request's start tag. Two consequences, both property-tested:

    * tags within one tenant are strictly increasing, so per-tenant FIFO
      order is preserved;
    * continuously-backlogged tenants receive capacity in proportion to
      their weights.

    Tags arrive through the base class's own verbs —
    ``request(tenant, cost)`` and ``use(hold, tenant, cost)``; untagged
    calls (``acquire`` included) map to the default tenant ``None`` at cost
    1.0, so code that is unaware of tenants keeps working against a
    WFQResource.
    """

    # Every hold is a tagged request, so the finish tags and the virtual
    # time always advance.
    _grantless_holds = False

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: str = "",
        weight_of: Optional[Callable[[Optional[str]], float]] = None,
    ):
        super().__init__(sim, capacity=capacity, name=name)
        self._weight_of = weight_of
        self._vtime = 0.0
        self._last_finish: Dict[Optional[str], float] = {}
        self._heap: List[Tuple[float, int, WFQRequest]] = []
        self._seq = 0

    @property
    def queue_length(self) -> int:
        return sum(1 for _, _, r in self._heap if not r.cancelled)

    def _tag(self, req: WFQRequest, tenant: Optional[str], cost: float) -> None:
        w = 1.0
        if self._weight_of is not None:
            w = self._weight_of(tenant) or 1.0
        start = self._vtime
        last = self._last_finish.get(tenant)
        if last is not None and last > start:
            start = last
        finish = start + cost / w
        self._last_finish[tenant] = finish
        req.tenant = tenant
        req.cost = cost
        req.start = start
        req.finish = finish

    def request(self, tenant: Optional[str] = None,
                cost: float = 1.0) -> WFQRequest:
        return self._enqueue(WFQRequest(self), tenant, cost)

    def _request_pooled(self, tenant: Optional[str] = None,
                        cost: Optional[float] = None) -> WFQRequest:
        """Where ``Resource.use`` hands over its tags; an untagged ``use``
        costs 1.0. Recycled requests are re-tagged like fresh ones (the
        reset is inlined as in the base class: a shared helper would add a
        Python call to every ``use``)."""
        pool = self._pool
        if pool:
            req = pool.pop()
            req._value = _PENDING
            req._ok = None
            req._scheduled = False
            req.callbacks = []
            req.granted = False
            req.cancelled = False
        else:
            req = WFQRequest(self)
        return self._enqueue(req, tenant, 1.0 if cost is None else cost)

    def _enqueue(self, req: WFQRequest, tenant: Optional[str],
                 cost: float) -> WFQRequest:
        watch = self._watch
        if watch is not None:
            watch.add(self)
        self._tag(req, tenant, cost)
        if self._in_use < self.capacity and not self._heap:
            if req.start > self._vtime:
                self._vtime = req.start
            self._grant(req)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (req.finish, self._seq, req))
        return req

    def release(self, req: Request) -> None:
        watch = self._watch
        if watch is not None:
            watch.add(self)
        if not req.granted:
            if req.cancelled or req._value is not _PENDING:
                raise SimulationError("releasing a request never granted/queued")
            # Lazy cancellation, as in the base class: the grant loop skips
            # cancelled entries when they surface at the top of the heap.
            req.cancelled = True
            return
        req.granted = False
        self._in_use -= 1
        heap = self._heap
        while heap and self._in_use < self.capacity:
            _, _, nxt = heapq.heappop(heap)
            if nxt.cancelled:
                continue
            if nxt.start > self._vtime:
                self._vtime = nxt.start
            self._grant(nxt)


class _TenantState:
    __slots__ = ("weight", "ops", "bytes", "inflight")

    def __init__(self, weight: float, ops: TokenBucket, bytes_: TokenBucket):
        self.weight = weight
        self.ops = ops
        self.bytes = bytes_
        self.inflight = 0


class QosManager:
    """Cluster-wide tenant registry, rate limits, and admission control.

    Pure bookkeeping — schedules no events of its own (the
    ``FencingRegistry`` pattern); the throttle generators yield at most one
    timeout and only when a bucket is in deficit, so an under-limit tenant
    pays zero events.
    """

    def __init__(self, sim: Simulator, params) -> None:
        self.sim = sim
        self.params = params
        self._tenants: Dict[Optional[str], _TenantState] = {}
        # Client name -> tenant; the lease managers share this dict to
        # attribute lease RPCs (an unlisted client is its own tenant).
        self.client_tenant: Dict[str, str] = {}
        from ..obs import Observability

        registry = Observability.of(sim).metrics
        self.metrics = registry
        scope = registry.scope("qos")
        self._c_admitted = scope.counter("admitted")
        self._c_busy = scope.counter("busy")
        self._c_throttle_ops = scope.counter("throttle_ops")
        self._c_throttle_bytes = scope.counter("throttle_bytes")
        self._h_wait = scope.histogram("throttle_wait")
        self._tenant_hists: Dict[Optional[str], object] = {}

    # -- tenant registry --------------------------------------------------

    def state(self, tenant: Optional[str]) -> _TenantState:
        st = self._tenants.get(tenant)
        if st is None:
            p = self.params
            st = _TenantState(
                p.qos_default_weight,
                TokenBucket(p.qos_ops_rate, p.qos_ops_burst),
                TokenBucket(p.qos_bytes_rate, p.qos_bytes_burst),
            )
            self._tenants[tenant] = st
        return st

    def register_client(self, client_name: str, tenant: str) -> None:
        """Bind ``client_name`` to ``tenant`` (for lease-RPC attribution)."""
        self.client_tenant[client_name] = tenant
        self.state(tenant)

    def weight_of(self, tenant: Optional[str]) -> float:
        st = self._tenants.get(tenant)
        return st.weight if st is not None else self.params.qos_default_weight

    # -- admission + throttling -------------------------------------------

    def enter_op(self, tenant: Optional[str]) -> SimGen:
        """Admit one metadata op: bounded in-flight, then the ops bucket.

        Raises :class:`TenantBusy` *before* claiming an in-flight slot when
        the tenant is at its cap; the caller retries with backoff. On
        success the slot is held until :meth:`exit_op`, including across
        the throttle sleep (queued-but-throttled ops count as in flight).
        """
        st = self.state(tenant)
        if st.inflight >= self.params.qos_max_inflight:
            self._c_busy.inc()
            raise TenantBusy(tenant or "?", "max in-flight ops reached")
        st.inflight += 1
        self._c_admitted.inc()
        delay = st.ops.delay_for(1.0, self.sim.now)
        if delay > 0.0:
            self._c_throttle_ops.inc()
            self._h_wait.observe(delay)
            yield self.sim.timeout(delay)

    def exit_op(self, tenant: Optional[str]) -> None:
        st = self.state(tenant)
        # Clamped: a crashed client may have reset this tenant already.
        if st.inflight > 0:
            st.inflight -= 1

    def throttle_bytes(self, tenant: Optional[str], nbytes: int) -> SimGen:
        """Charge ``nbytes`` to the tenant's data bucket, sleeping off any
        deficit. Zero events when the tenant is under its rate."""
        if nbytes <= 0:
            return
        st = self.state(tenant)
        delay = st.bytes.delay_for(float(nbytes), self.sim.now)
        if delay > 0.0:
            self._c_throttle_bytes.inc()
            self._h_wait.observe(delay)
            yield self.sim.timeout(delay)

    def release_tenant(self, tenant: Optional[str]) -> None:
        """Drop all in-flight accounting for ``tenant`` (client crash):
        abandoned generators never reach their ``exit_op``."""
        st = self._tenants.get(tenant)
        if st is not None:
            st.inflight = 0

    def observe_op(self, tenant: Optional[str], seconds: float) -> None:
        """An admitted op's latency, into ``tenant.<tid>.md_lat``."""
        h = self._tenant_hists.get(tenant)
        if h is None:
            h = self._tenant_hists[tenant] = self.metrics.histogram(
                f"tenant.{tenant or '?'}.md_lat")
        h.observe(seconds)


class QosClient:
    """The QoS layer, composed once by ``build_arkfs`` (:func:`qos_layer`)
    over ``ArkFSClient`` or ``ShardedClient``.

    A top-level authority op is admitted (``enter_op``, ``TenantBusy``
    retried through the client's retry policy) and observed as
    ``tenant.<tid>.md_lat``. The depth rule is client-wide: while any op of
    this client is admitted, every authority op it starts counts as nested
    and skips admission — right for the ops one fs op fans into, wrong for
    a second concurrent top-level op (ROADMAP 1, bug (viii)). A data op's
    bytes are throttled after its file lease, before the cache."""

    def __init__(self, *args: Any, qos: QosManager, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.qos = qos
        self._qos_depth = 0
        # Default tenancy: one tenant per client, named after its node.
        self.bind_tenant(self.name)

    def bind_tenant(self, tenant: str) -> None:
        super().bind_tenant(tenant)
        self.qos.register_client(self.name, tenant)

    def _authority_op(self, dir_ino: int, opname: str, creds,
                      **kwargs: Any) -> SimGen:
        if self._qos_depth:
            return super()._authority_op(dir_ino, opname, creds, **kwargs)
        return self._admitted_op(dir_ino, opname, creds, kwargs)

    def _admitted_op(self, dir_ino: int, opname: str, creds,
                     kwargs: Dict[str, Any]) -> SimGen:
        qos, tenant = self.qos, self.node.tenant
        yield from self._retry.call(partial(qos.enter_op, tenant),
                                    retry_on=(TenantBusy,))
        t0 = self.sim.now
        self._qos_depth += 1
        try:
            return (yield from super()._authority_op(dir_ino, opname, creds,
                                                     **kwargs))
        finally:
            self._qos_depth -= 1
            qos.exit_op(tenant)
            qos.observe_op(tenant, self.sim.now - t0)

    def _file_lease(self, handle, want: str, nbytes: int) -> SimGen:
        grant = yield from super()._file_lease(handle, want, nbytes)
        yield from self.qos.throttle_bytes(self.node.tenant, nbytes)
        return grant

    def crash(self) -> None:
        super().crash()
        # Ops abandoned mid-throttle never reach their exit_op; drop the
        # tenant's in-flight accounting so recovery isn't starved.
        self.qos.release_tenant(self.node.tenant)
        self._qos_depth = 0


@lru_cache(maxsize=None)
def qos_layer(base: type) -> type:
    """The client class ``base`` with the :class:`QosClient` layer on top
    (one class per base, however many clusters are built)."""
    return type("Qos" + base.__name__, (QosClient, base), {})
