"""Queueing primitives built on the DES kernel.

These model the shared hardware the paper's performance effects come from:
CPU cores at metadata servers and clients (:class:`Resource`), storage and
network bandwidth (:class:`BandwidthPipe`), message queues (:class:`Store`),
and mutual exclusion such as the FUSE lookup lock (:class:`Mutex`).

Hot-path notes (DESIGN.md §10): never-granted requests are *lazily*
cancelled instead of removed from the FIFO in O(n); the Request/Timeout
objects used internally by ``use`` are recycled through small freelists;
a grant carries no value, so a request nobody holds is freed by reference
counting, not by the cyclic collector; and a sampled resource tells the
sampler when its state changed (``Resource._watch``) instead of being
polled every tick.

This module is the only place that knows how to wait for and hold a queue:
``Resource.use`` for a timed hold, ``Resource.acquire`` for a hold across
arbitrary work. The queue discipline (FIFO here, tenant-weighted fair
queueing in ``repro.core.qos.WFQResource``) is the resource's class, chosen
where the resource is built; callers tag every ``use`` and a FIFO ignores
the tags.

``Resource.use`` — 60 % of all scheduled events in the metadata workloads
are its grant + hold — has two bodies with one schedule. ``_use_textbook``
is the definition: yield the request, then yield a timeout. It runs when
the running process is traced (each step gets its span) or the hold is
zero. ``use`` itself is the other body, and resumes the calling process
once per hold instead of twice, through the scheduler's hold primitive. It
asks the scheduler one question — could anything observe the grant a free
slot would trigger now (``Simulator._hold_unobserved``)? If not, there is no
request and no grant event: the slot is taken, the hold's end is already
scheduled, and the ``finally`` gives the slot back as ``release`` would.
If so (or the resource is full) it requests, and the grant event becomes
the hold's timer (``Simulator._hold``). Whether a grant may skip the run
loop, or need not exist, stays the scheduler's call; a discipline that
must see every request (``WFQResource``) turns the grant-less arm off.
``Node.work``, ``BandwidthPipe.transfer`` and ``serve`` are plain
functions returning that generator, so a hold adds one frame to the
``yield from`` chain every resume re-enters. ``ServiceHold`` takes the
same arms for a slot hold followed by a pipe transfer — an OSD request —
as one object driven like a generator, so each of the thousands that can
wait at once keeps that object and its request, not two suspended frames.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Event, SimGen, Simulator, SimulationError

__all__ = ["Request", "Resource", "ServiceHold", "Mutex", "Store",
           "BandwidthPipe", "serve"]

_PENDING = Event._PENDING

#: Cap on each Resource's internal Request freelist.
_REQ_POOL_MAX = 64


def _span_cat(name: str) -> str:
    """Latency-attribution category for a resource, by naming convention."""
    if name.endswith(".cpu"):
        return "cpu"
    if name.endswith(".nic"):
        return "net"
    if name.endswith(".media"):
        return "media"
    return "svc"


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Triggers (with value ``None``) once the resource grants a slot. Must be
    passed back to :meth:`Resource.release`.
    """

    __slots__ = ("resource", "granted", "cancelled")

    def __init__(self, resource: "Resource"):
        # Event.__init__ written out: one Python call fewer for every
        # ``acquire`` and every freelist miss.
        self.sim = resource.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self._auto_value = None
        self.resource = resource
        self.granted = False
        # Lazily-cancelled queued request: skipped (and dropped) when it
        # reaches the head of the FIFO instead of being removed in O(n).
        self.cancelled = False


class Resource:
    """A FIFO multi-server resource with fixed capacity.

    ``capacity`` concurrent holders; further requests queue in arrival order.
    This is the building block for CPU cores, MDS service slots, and disk
    queue depth.
    """

    #: Whether ``use`` may take a free slot without a request when the
    #: scheduler proves nobody could observe the grant. A discipline that
    #: must see every request (``WFQResource``: its tags advance on every
    #: hold) says no.
    _grantless_holds = True

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.span_cat = _span_cat(name)
        self._wait_name = f"wait:{name}" if name else "wait"
        self._in_use = 0
        self._queue: Deque[Request] = deque()
        self._n_cancelled = 0
        self._pool: list[Request] = []
        # The resource sampler's dirty set while this resource is sampled
        # (``repro.obs``), else None: every method that changes ``in_use``
        # or ``queue_length`` adds ``self`` to it.
        self._watch: Optional[set] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue) - self._n_cancelled

    def request(self) -> Request:
        watch = self._watch
        if watch is not None:
            watch.add(self)
        req = Request(self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._queue.append(req)
        return req

    def _request_pooled(self, tenant: Optional[str] = None,
                        cost: Optional[float] = None) -> Request:
        """Internal variant of :meth:`request` for :meth:`use`: may return a
        recycled Request object (never exposed to user code). A FIFO has no
        use for the tenant tags."""
        watch = self._watch
        if watch is not None:
            watch.add(self)
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
            req = Request(self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._queue.append(req)
        return req

    def release(self, req: Request) -> None:
        watch = self._watch
        if watch is not None:
            watch.add(self)
        if not req.granted:
            # Cancelling a queued request (e.g. the holder-to-be crashed).
            # Lazy: flag it and let the grant loop skip it when it surfaces;
            # an O(n) deque.remove here was a hot spot under crash sweeps.
            if req.cancelled or req._value is not _PENDING:
                raise SimulationError("releasing a request never granted/queued")
            req.cancelled = True
            self._n_cancelled += 1
            q = self._queue
            while q and q[0].cancelled:
                q.popleft()
                self._n_cancelled -= 1
            return
        req.granted = False
        self._in_use -= 1
        if self._queue:
            self._grant_waiters()

    def _grant_waiters(self) -> None:
        """A slot came back: grant queued requests, in order, while slots
        are free."""
        q = self._queue
        while q and self._in_use < self.capacity:
            nxt = q.popleft()
            if nxt.cancelled:
                self._n_cancelled -= 1
                continue
            self._grant(nxt)

    def _grant(self, req: Request) -> None:
        self._in_use += 1
        req.granted = True
        # No value: ``req.succeed(req)`` would make every request a
        # reference cycle that only the cyclic collector frees.
        req.succeed()

    def acquire(self) -> SimGen:
        """Generator helper for a hold across arbitrary work: wait for a
        slot (a contended wait gets a queue span when traced) and return
        the granted request, which the caller passes to :meth:`release`
        in a ``finally``. Interrupted before it returns — still queued, or
        granted but not yet resumed — it cancels the request or gives the
        slot straight back, so a dead waiter never holds the resource."""
        req = self.request()
        tr = self.sim._active_proc.tracer
        try:
            if tr is None or req.granted:
                yield req
            else:
                with tr.span(self._wait_name, "queue"):
                    yield req
        except BaseException:
            self.release(req)
            raise
        return req

    def use(self, hold_time: float, tenant: Optional[str] = None,
            cost: Optional[float] = None) -> SimGen:
        """Generator helper: acquire, hold for ``hold_time``, release.

        ``tenant`` and ``cost`` tag the request for a fair-queueing
        discipline; a FIFO ignores them.

        Resumes the caller once, when the hold ends: the schedule (same
        events, same order) of :meth:`_use_textbook`, which it runs instead
        when the running process is traced (each step gets its span) or
        there is nothing to hold."""
        sim = self.sim
        if not hold_time > 0 or sim._active_proc.tracer is not None:
            yield from self._use_textbook(hold_time, tenant, cost)
            return
        if self._in_use < self.capacity and self._grantless_holds:
            t = sim._hold_unobserved(hold_time)
            if t is not None:
                # Nothing could observe this grant: no request, no grant
                # event. Take the slot; give it back as ``release`` does.
                watch = self._watch
                if watch is not None:
                    watch.add(self)
                self._in_use += 1
                try:
                    yield t
                finally:
                    watch = self._watch
                    if watch is not None:
                        watch.add(self)
                    self._in_use -= 1
                    if self._queue:
                        self._grant_waiters()
                    sim._timeout_release(t)
                return
        req = self._request_pooled(tenant, cost)
        try:
            # The grant is the hold's timer: processed, it is re-armed.
            yield sim._hold(req, hold_time)
        finally:
            # Interrupted before the grant was processed, this cancels the
            # queued request or gives the just-granted slot straight back,
            # and the hold never starts. Only requests that have fired as
            # timers are recycled: anything else may still be referenced
            # by the scheduler.
            self.release(req)
            if req.callbacks is None and len(self._pool) < _REQ_POOL_MAX:
                self._pool.append(req)

    def _use_textbook(self, hold_time: float, tenant: Optional[str] = None,
                      cost: Optional[float] = None) -> SimGen:
        """The definition of ``use``: wait for the grant, then for the hold.

        With tracing on, a contended acquisition gets a queue-wait span and
        the hold gets a span in the resource's attribution category."""
        sim = self.sim
        tr = sim._active_proc.tracer
        req = self._request_pooled(tenant, cost)
        try:
            if req.granted or tr is None:
                yield req
            else:
                with tr.span(self._wait_name, "queue"):
                    yield req
            if hold_time > 0:
                if tr is None:
                    yield sim.timeout(hold_time)
                else:
                    with tr.span(self.name or "hold", self.span_cat):
                        yield sim.timeout(hold_time)
        finally:
            # Interrupted while waiting for the grant, this cancels the
            # queued request or gives the just-granted slot straight back.
            self.release(req)
            # Recycle only fully-consumed requests: processed (popped off
            # the queues, callbacks run) and not parked cancelled in the
            # FIFO. Anything else may still be referenced by the scheduler.
            if (req.callbacks is None and not req.cancelled
                    and len(self._pool) < _REQ_POOL_MAX):
                self._pool.append(req)


# The arm a ServiceHold's hold in progress took (0: none in progress).
_GRANTLESS, _REQUESTED, _TEXTBOOK = 1, 2, 3


class ServiceHold:
    """A queue hold, then a pipe transfer, as one object: the iterator of

        yield from queue.use(hold_time, tenant, cost)
        if nbytes > 0:
            yield from pipe.transfer(nbytes)

    driven through ``send``/``throw``/``close`` like the generator it
    stands for, whether a process runs it as its body or a generator
    ``yield from``-s it. An OSD request is one (``ClusterObjectStore.
    _service``), and thousands of them can sit queued at once: each is this
    object and the request it parks, not two suspended generator frames.

    Each hold takes the arm ``Resource.use`` would take, with the same
    events and counts: the textbook generator (``_use_textbook``) for a
    zero hold or a traced process, else the grant-less arm or the request
    arm, whose end — ``use``'s ``finally`` — runs in ``send`` itself.
    ``tests/sim/test_service_hold.py`` holds it to the generator."""

    __slots__ = ("queue", "hold_time", "tenant", "cost", "pipe", "nbytes",
                 "_stage", "_arm", "_held")

    def __init__(self, queue: Resource, hold_time: float,
                 tenant: Optional[str], cost: Optional[float],
                 pipe: "BandwidthPipe", nbytes: int):
        self.queue = queue
        self.hold_time = hold_time
        self.tenant = tenant
        self.cost = cost
        self.pipe = pipe
        self.nbytes = nbytes
        # 0 not started, 1 queue hold, 2 pipe transfer, 3 finished.
        self._stage = 0
        self._arm = 0
        # The hold's timeout (grant-less), request (request arm) or
        # textbook generator.
        self._held = None

    def __iter__(self) -> "ServiceHold":
        return self

    def send(self, value: Any = None) -> Event:
        """Resume: end the hold that ran out, then start the next one and
        return the event it waits on, or finish (``StopIteration``)."""
        arm = self._arm
        if arm == _TEXTBOOK:
            try:
                return self._held.send(value)
            except StopIteration:
                self._arm = 0
                self._held = None
        elif arm:
            # The hold ran out: ``_release_hold`` for these two arms,
            # written out.
            held = self._held
            self._arm = 0
            self._held = None
            res = self.queue if self._stage == 1 else self.pipe._res
            if arm == _GRANTLESS:
                watch = res._watch
                if watch is not None:
                    watch.add(res)
                res._in_use -= 1
                if res._queue:
                    res._grant_waiters()
                res.sim._timeout_release(held)
            else:
                res.release(held)
                if held.callbacks is None and len(res._pool) < _REQ_POOL_MAX:
                    res._pool.append(held)
        stage = self._stage
        if stage == 0:
            self._stage = 1
            res = self.queue
            hold_time = self.hold_time
            tenant = self.tenant
            cost = self.cost
        elif stage == 1 and self.nbytes > 0:
            # BandwidthPipe.transfer, written out.
            self._stage = 2
            pipe = self.pipe
            nbytes = self.nbytes
            pipe.bytes_moved += nbytes
            res = pipe._res
            hold_time = nbytes * res.capacity / pipe.bytes_per_sec
            tenant = cost = None
        else:
            self._stage = 3
            raise StopIteration
        # Resource.use, written out: start the hold.
        sim = res.sim
        if not hold_time > 0 or sim._active_proc.tracer is not None:
            held = res._use_textbook(hold_time, tenant, cost)
            self._arm = _TEXTBOOK
            self._held = held
            return held.send(None)
        if res._in_use < res.capacity and res._grantless_holds:
            t = sim._hold_unobserved(hold_time)
            if t is not None:
                watch = res._watch
                if watch is not None:
                    watch.add(res)
                res._in_use += 1
                self._arm = _GRANTLESS
                self._held = t
                return t
        req = res._request_pooled(tenant, cost)
        self._arm = _REQUESTED
        self._held = req
        return sim._hold(req, hold_time)

    # A resume with no value (``yield from`` resumes an iterator through
    # ``__next__`` then) is a send.
    __next__ = send

    def throw(self, typ, val=None, tb=None) -> Event:
        """Raise at the hold in progress: it ends as ``use``'s ``finally``
        ends it, and the exception propagates."""
        try:
            textbook = self._release_hold()
            if textbook is not None:
                return textbook.throw(typ if val is None else val)
            raise typ if val is None else val
        finally:
            # The exception's traceback keeps this frame: no local may keep
            # the exception, or the two form a reference cycle.
            typ = val = tb = None

    def close(self) -> None:
        textbook = self._release_hold()
        if textbook is not None:
            textbook.close()

    def _release_hold(self) -> Optional[SimGen]:
        """Finish. A grant-less or request-arm hold in progress ends here
        as ``use``'s ``finally`` ends it (the slot, or the queued request,
        goes back); a textbook hold's generator is returned, for the
        caller to end."""
        arm = self._arm
        held = self._held
        res = self.queue if self._stage == 1 else self.pipe._res
        self._stage = 3
        self._arm = 0
        self._held = None
        if arm == _TEXTBOOK:
            return held
        if arm == _GRANTLESS:
            watch = res._watch
            if watch is not None:
                watch.add(res)
            res._in_use -= 1
            if res._queue:
                res._grant_waiters()
            res.sim._timeout_release(held)
        elif arm == _REQUESTED:
            res.release(held)
            if held.callbacks is None and len(res._pool) < _REQ_POOL_MAX:
                res._pool.append(held)
        return None


class Mutex(Resource):
    """Capacity-1 resource (e.g. the kernel's exclusive FUSE lookup lock)."""

    def __init__(self, sim: Simulator, name: str = ""):
        super().__init__(sim, capacity=1, name=name)


class Store:
    """An unbounded FIFO channel of items; ``get`` blocks until an item exists.

    Used for RPC server request queues and background-thread work queues.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop; ``None`` if empty."""
        return self._items.popleft() if self._items else None


class BandwidthPipe:
    """A shared link/device transferring bytes at a fixed aggregate rate.

    Transfers are serviced FIFO through ``lanes`` parallel channels, each
    proportionally slower as the device is shared. The FIFO model reproduces
    saturation behaviour (aggregate throughput caps at ``bytes_per_sec``)
    without the complexity of fair-share recomputation.
    """

    def __init__(
        self,
        sim: Simulator,
        bytes_per_sec: float,
        lanes: int = 1,
        name: str = "",
    ):
        if bytes_per_sec <= 0:
            raise SimulationError("bandwidth must be positive")
        self.sim = sim
        self.bytes_per_sec = float(bytes_per_sec)
        self.name = name
        self._res = Resource(sim, capacity=max(1, lanes), name=name)
        if self._res.span_cat == "svc":
            # Pipes move data: local disks etc. attribute as "media".
            self._res.span_cat = "media"
        self.bytes_moved = 0

    def transfer(self, nbytes: int) -> SimGen:
        """Move ``nbytes`` through the pipe, modelling queueing.

        Counts the bytes when called and returns the generator to iterate
        (``yield from`` it right away)."""
        if nbytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        self.bytes_moved += nbytes
        res = self._res
        # Each lane serves at the per-lane share of the aggregate rate.
        return res.use(nbytes * res.capacity / self.bytes_per_sec)

    @property
    def queue_length(self) -> int:
        return self._res.queue_length


def serve(resource: Resource, service_time: float) -> SimGen:
    """Acquire ``resource``, hold it for ``service_time``, release.

    The canonical "CPU does work" pattern: queueing delay emerges when the
    resource is contended.
    """
    return resource.use(service_time)
