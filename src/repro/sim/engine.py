"""Discrete-event simulation kernel.

This is the timing substrate for the whole reproduction: file-system
operations are generator coroutines that yield :class:`Event` objects and are
driven by a :class:`Simulator`. The design is a compact subset of the SimPy
process-interaction model, implemented from scratch so the repository has no
dependencies beyond the scientific stack.

Typical use::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.5)
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done" and sim.now == 1.5

Scheduler structure (DESIGN.md §10). The semantics are those of a single
``(time, seq, event)`` heap: events fire in due-time order, and ``seq``
breaks same-time ties in scheduling order. The vast majority of events in
the file-system models are scheduled at delay 0 (process kick-offs,
``succeed``/``fail``, resource grants, store hand-offs), so the scheduler
splits the event set in two:

* a FIFO *ready deque* holding events due exactly at ``now`` — appended
  and popped in O(1) with no heap traffic. Heap entries at time ``now``
  were necessarily scheduled before the clock reached ``now`` (a strictly
  positive delay lands strictly in the future), so they carry smaller
  ``seq`` values than anything in the deque and are drained first; deque
  entries then fire in append (= ``seq``) order. The pop order is
  therefore *identical* to a single heap's.
* the heap, touched only by events with a strictly-future due time.

On top of that, an event may be consumed *inline* — without a trip through
the run loop — exactly when it is provably the next one the run loop would
pop: it is at the front of the ready deque, and
:meth:`Simulator._front_is_next` holds (the heap has nothing due at
``now``, and no enclosing callback pass has callbacks still pending,
``_cb_pending``). Under those conditions inlining is a pure
constant-folding of the run loop and cannot reorder anything. The rule
lives in this module only, and has two users: :meth:`Process._resume` —
the one step body, entered alike by a kick-off, an awaited event and an
interrupt's failed wake-up event — which continues the generator that
yielded the event, and the *hold primitive* behind ``Resource.use``.

A resource hold is two events — the grant, then a timeout — but the
process only cares about the second, so it yields once and is resumed
once, when the hold ends. The primitive has two arms. ``_hold(grant,
delay)`` returns the grant itself, and the grant doubles as the hold's
timer: when it is processed — inline, or by the run loop, at its own
place in (time, seq) order — it is re-scheduled for ``delay`` instead of
resuming the process, exactly where the resumed process would have
created its timeout. ``_hold_unobserved(delay)`` is for a free slot whose
grant would be the very next event popped: nothing could observe that
grant's place in the queue, so it is not created at all — it is counted
as the inline event it would have been and only the end of the hold is
scheduled. Either way the schedule is the two-yield schedule, event for
event and count for count.

The heap-only scheduler these rules are equivalent to lives in
``tests/sim/reference_kernel.py`` as a test oracle;
``tests/sim/test_kernel_identity.py`` replays randomized workloads and the
paper figures on both and requires identical output.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Union

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
]

# A simulated operation: a generator that yields Events and returns a value.
SimGen = Generator["Event", Any, Any]

#: Bounds for the internal object freelists (timeouts / requests). Small:
#: the pools only need to cover the per-hop working set, not the backlog.
_TIMEOUT_POOL_MAX = 256


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    ``cause`` carries arbitrary user data (e.g. the reason for a crash).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, and is *processed* once the simulator has run its
    callbacks. Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_auto_value")

    _PENDING = object()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        # Value delivered automatically when a pre-scheduled event (e.g. a
        # Timeout) is popped off the queue without an explicit succeed()/fail().
        self._auto_value: Any = None

    @property
    def triggered(self) -> bool:
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not Event._PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        if not self._scheduled:
            self._scheduled = True
            self.sim._ready.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not Event._PENDING:
            raise SimulationError("event already triggered")
        self._ok = False
        self._value = exc
        if not self._scheduled:
            self._scheduled = True
            self.sim._ready.append(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately in the current step.
            fn(self)
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    :meth:`Simulator.timeout` builds and schedules one without running this
    constructor (same fields, same routing)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self._auto_value = value
        sim._schedule(self, delay)


class Process(Event):
    """Drives a generator coroutine; the process itself is awaitable.

    The process event triggers when the generator returns (success, with the
    generator's return value) or raises (failure, with the exception).
    :meth:`Simulator.process` builds one in place: a spawn is one call.
    """

    __slots__ = ("_gen", "_waiting_on", "_wait_epoch", "_gate_hold", "name",
                 "parent_proc", "tracer")

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not Event._PENDING:
            return
        if self._waiting_on is not None:
            target = self._waiting_on
            epoch = self._wait_epoch

            def deliver(wake: Event, self=self) -> None:
                # The process may have resumed (or died) through its awaited
                # event in the meantime; only interrupt if still waiting.
                # The epoch guards against the awaited event *object* being
                # recycled into a later wait of the same process.
                if (self._value is Event._PENDING
                        and self._waiting_on is target
                        and self._wait_epoch == epoch):
                    # Take this wait's callback off the abandoned event:
                    # left behind, it would resume the process ahead of
                    # its turn if it ever waits on the same event again.
                    target.callbacks.remove(self._resume)
                    # A hold queued on that event is called off with it.
                    self._gate_hold = 0
                    # The wake-up is a failed event carrying the Interrupt:
                    # the process resumes on it like on any other.
                    self._waiting_on = wake
                    self._resume(wake)

            wake = Event(self.sim)
            wake.callbacks.append(deliver)
            wake.fail(Interrupt(cause))

    # -- internal ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """The step body — every way into the generator (kick-off, awaited
        event, interrupt) is a resume on the event the process waits on.
        One exception: the grant of a queued hold (:meth:`Simulator._hold`)
        is re-armed as the hold's timer instead."""
        if self._value is not Event._PENDING or self._waiting_on is not event:
            # Process finished, or was interrupted away from this event and is
            # now waiting on something else: this wake-up is stale.
            return
        sim = self.sim
        hold = self._gate_hold
        if hold:
            # The process moves on to waiting out the hold — on the same
            # object, scheduled here, where a process resumed by the grant
            # would have created its timeout. As after a resume, an
            # interrupt requested before this point and not yet delivered
            # is stale (see interrupt).
            self._gate_hold = 0
            self._wait_epoch += 1
            event.callbacks = [self._resume]
            now = sim.now
            at = now + hold
            if at == now:
                sim._ready.append(event)
            else:
                sim._seq += 1
                heapq.heappush(sim._heap, (at, sim._seq, event))
            return
        self._waiting_on = None
        value = event._value
        throw = not event._ok
        gen = self._gen
        prev_active = sim._active_proc
        sim._active_proc = self
        ready = sim._ready
        heap = sim._heap
        PENDING = Event._PENDING
        try:
            while True:
                try:
                    if throw:
                        target = gen.throw(value)
                    else:
                        target = gen.send(value)
                except StopIteration as stop:
                    # succeed(), written out: a process triggers only here.
                    self._ok = True
                    self._value = stop.value
                    self._scheduled = True
                    ready.append(self)
                    return
                except BaseException as exc:  # noqa: BLE001 - propagate via event
                    # Stored without this frame at the head of its
                    # traceback: the frame holds ``self``, so process ->
                    # exception -> traceback -> frame would be a cycle
                    # that only the cyclic collector frees.
                    self.fail(exc.with_traceback(exc.__traceback__.tb_next))
                    return
                if not isinstance(target, Event):
                    gen.close()
                    self.fail(
                        SimulationError(
                            f"process {self.name!r} yielded non-event {target!r}"
                        )
                    )
                    return
                if target.sim is not sim:
                    gen.close()
                    self.fail(
                        SimulationError("yielded event belongs to another simulator"))
                    return
                # Immediate resume: the yielded event is exactly the next
                # one the run loop would process (front of the ready deque,
                # and Simulator._front_is_next, written out here: one call
                # fewer per inline event). Consuming it here is a pure
                # inlining of the run loop: (time, seq) order is preserved
                # event-for-event.
                if (ready and ready[0] is target and not sim._cb_pending
                        and not (heap and heap[0][0] <= sim.now)):
                    ready.popleft()
                    sim._n_inline += 1
                    if target._value is PENDING:
                        target._ok = True
                        target._value = target._auto_value
                    callbacks = target.callbacks
                    target.callbacks = None
                    if callbacks:
                        # Rare: the event has other waiters. Run them in
                        # registration order first; this generator's
                        # continuation is logically the final callback of
                        # the pass, so it counts as pending meanwhile.
                        base = sim._cb_pending
                        n = len(callbacks)
                        try:
                            for i in range(n):
                                sim._cb_pending = base + n - i
                                callbacks[i](target)
                        finally:
                            sim._cb_pending = base
                    value = target._value
                    throw = not target._ok
                    continue
                cbs = target.callbacks
                if cbs is None:
                    # Already processed (e.g. a pooled event consumed by an
                    # earlier waiter): continue with its settled value, the
                    # non-recursive equivalent of add_callback's immediate
                    # dispatch to _resume.
                    value = target._value
                    throw = not target._ok
                    continue
                self._waiting_on = target
                self._wait_epoch += 1
                cbs.append(self._resume)
                return
        finally:
            sim._active_proc = prev_active


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_n_done", "_index")

    #: AnyOf needs an event -> index map for O(1) first-trigger lookup;
    #: AllOf never looks indices up and skips building it.
    _NEEDS_INDEX = False

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        # Event.__init__, written out.
        self.sim = sim
        self.callbacks = []
        self._value = Event._PENDING
        self._ok = None
        self._scheduled = False
        self._auto_value = None
        self.events = list(events)
        self._n_done = 0
        if self._NEEDS_INDEX:
            # Built before callbacks attach (an already-processed child
            # fires _on_child synchronously below). setdefault semantics:
            # duplicate children deterministically map to their first
            # position, matching list.index.
            index: dict = {}
            for i, ev in enumerate(self.events):
                if ev not in index:
                    index[ev] = i
            self._index = index
        else:
            self._index = None
        if not self.events:
            self._auto_value = []
            sim._schedule(self, 0)
            return
        # add_callback per child, written out: one bound method for all.
        on_child = self._on_child
        for ev in self.events:
            cbs = ev.callbacks
            if cbs is None:
                on_child(ev)        # already processed: fires right away
            else:
                cbs.append(on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered; fails fast on failure.

    Value is the list of child values in the original order.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not Event._PENDING:   # triggered
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            # succeed(), written out: the guard above triggers it once.
            self._ok = True
            self._value = [ev._value for ev in self.events]
            self._scheduled = True
            self.sim._ready.append(self)


class AnyOf(_Condition):
    """Triggers when the first child event triggers (value or failure).

    Value is ``(index, value)`` of the first event to fire.
    """

    __slots__ = ()

    _NEEDS_INDEX = True

    def _on_child(self, event: Event) -> None:
        if self._value is not Event._PENDING:   # triggered
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed((self._index[event], event._value))


class Simulator:
    """The event loop: a ready deque for now-events plus a time-ordered heap."""

    # The full-trace tracer (set by repro.obs), which a top-level process
    # starts with as its ``tracer``; None unless full tracing is on.
    tracer = None
    # Root-op observer (repro.obs: sampling decision + slow-op log + flight
    # recorder feed); consulted by the mount layer's root ops only.
    _obs_ops = None
    # Flight recorder (repro.obs.recorder.FlightRecorder). Subsystems feed
    # it via ``rec = sim._recorder; if rec is not None: rec.record(...)``.
    _recorder = None

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._ready: deque[Event] = deque()
        self._seq = 0
        # Process currently being stepped (i.e. whose generator frame is on
        # the Python stack). Spawning a Process inside it records the chain.
        self._active_proc: Optional[Process] = None
        # Number of callbacks still pending in enclosing multi-callback
        # passes. Non-zero blocks the inline resume: (time, seq) order runs
        # those callbacks before any freshly-queued event.
        self._cb_pending = 0
        # Freelist of engine-owned Timeout objects (resource holds, link
        # latency); see _timeout_acquire/_timeout_release.
        self._timeout_pool: list[Timeout] = []
        # Kernel counters (see repro.sim.stats.kernel_counters).
        self._n_steps = 0    # events processed through the run loop
        self._n_inline = 0   # events consumed inline, uncreated grants included

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if event._scheduled:
            raise SimulationError("event already scheduled")
        event._scheduled = True
        t = self.now + delay
        if t == self.now:
            # Due right now (delay 0, or a positive delay absorbed by float
            # rounding): FIFO ready queue, no heap traffic. Routing by the
            # *effective* time keeps the heap free of now-events scheduled
            # at now, which is what makes heap-before-deque draining
            # equivalent to seq order.
            self._ready.append(event)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (t, self._seq, event))

    def _front_is_next(self) -> bool:
        """The inline rule — the one place that decides whether an event
        may be consumed without a run-loop trip: the event at the front of
        the ready deque is provably the next one the run loop would pop
        when no enclosing callback pass still has callbacks to run and the
        heap holds nothing due at ``now`` (such entries carry smaller
        ``seq`` values than anything in the deque). Callers test
        ``ready and ready[0] is event`` first."""
        heap = self._heap
        return not self._cb_pending and not (heap and heap[0][0] <= self.now)

    # -- internal object reuse --------------------------------------------

    def _timeout_acquire(self, delay: float) -> Timeout:
        """A Timeout for engine-owned waits (resource holds, link latency).

        May return a recycled instance; the caller must hand it back via
        :meth:`_timeout_release` after its yield completes, and must never
        expose it to user code."""
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            self._schedule(t, delay)
            return t
        return self.timeout(delay)

    def _timeout_release(self, t: Timeout) -> None:
        # Only a timeout that has fired: one still on the heap (its waiter
        # was interrupted away) would fire into whoever reused it.
        if t.callbacks is None and len(self._timeout_pool) < _TIMEOUT_POOL_MAX:
            t._value = Event._PENDING
            t._ok = None
            t._scheduled = False
            t.callbacks = []
            self._timeout_pool.append(t)

    def _hold(self, gate: Event, delay: float) -> Event:
        """The hold primitive behind ``Resource.use``: returns ``gate`` — a
        pooled resource grant, already triggered or still queued, that
        nobody else waits on and only ``succeed`` schedules — for the
        calling process to yield once; it is resumed when the hold ends,
        not once for the grant and once more for a timeout.

        The gate is its own timer. It stays a real event and keeps its
        place in the queues; when it is processed it is scheduled again,
        ``delay`` later, at the point in (time, seq) order where a process
        resumed by the grant would have created its timeout. If the gate is
        the very next event the run loop would pop, it is consumed here,
        exactly as :meth:`Process._resume` consumes a yielded event inline,
        and re-armed at once. Otherwise the process records the hold, and
        its step re-arms the gate when the run loop processes it
        (:meth:`Process._resume`)."""
        ready = self._ready
        if ready and ready[0] is gate and self._front_is_next():
            ready.popleft()
            self._n_inline += 1
            gate._scheduled = False
            self._schedule(gate, delay)
        else:
            self._active_proc._gate_hold = delay
        return gate

    def _hold_unobserved(self, delay: float) -> Optional[Timeout]:
        """The hold primitive's grant-less arm, for a resource with a free
        slot. The grant it would trigger now would join an *empty* ready
        deque and, the inline rule holding (:meth:`_front_is_next`, applied
        here to an event not yet created), be consumed by :meth:`_hold` one
        line later: nothing can observe its place in the queue. So it is
        not created — only counted, as the inline event it would have been
        — and this call schedules the end of the hold (``delay > 0``; hand
        the timeout back via :meth:`_timeout_release`), as
        :meth:`timeout` does. ``None``: the grant could be observed, so
        request, and arm the hold with :meth:`_hold`."""
        heap = self._heap
        now = self.now
        if self._ready or self._cb_pending or (heap and heap[0][0] <= now):
            return None
        self._n_inline += 1
        pool = self._timeout_pool
        if not pool:
            return self.timeout(delay)
        t = pool.pop()
        t._scheduled = True
        at = now + delay
        if at == now:
            self._ready.append(t)
        else:
            self._seq += 1
            heapq.heappush(heap, (at, self._seq, t))
        return t

    # -- public API --------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Timeout.__init__, Event.__init__ and _schedule written out: the
        # same fields and the same routing, three Python calls fewer.
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        t = Timeout.__new__(Timeout)
        t.sim = self
        t.callbacks = []
        t._value = Event._PENDING
        t._ok = None
        t._scheduled = True
        t._auto_value = value
        now = self.now
        at = now + delay
        if at == now:
            self._ready.append(t)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (at, self._seq, t))
        return t

    def process(self, gen: SimGen, name: str = "") -> Process:
        """Spawn ``gen`` as a process that starts at the current time.

        The process and its kick-off event are built in place, with no
        constructor call (process spawns are the hottest allocation site
        in RPC-bound workloads). The kick-off is invisible to user code:
        it goes straight to the ready deque (a delay-0 schedule lands
        there anyway), auto-succeeds with ``None`` and resumes the process
        through its one callback, :meth:`Process._resume`."""
        p = Process.__new__(Process)
        p.sim = self
        p.callbacks = []
        p._value = PENDING = Event._PENDING
        p._ok = None
        p._scheduled = False
        p._auto_value = None
        p._gen = gen
        # Bumped every time the process starts waiting on a (new) event.
        # Interrupt delivery checks it alongside the event identity, so a
        # pooled event object reused for a later wait of the same process
        # can never satisfy a stale interrupt.
        p._wait_epoch = 0
        # The hold still owed on the queued grant the process waits on
        # (Simulator._hold), 0 when none: processing that grant re-arms it
        # as the hold's timer instead of resuming the generator.
        p._gate_hold = 0
        p.name = name or getattr(gen, "__name__", "process")
        # The process that spawned this one (None for top-level processes).
        # Observability uses the chain to parent spans across fan-outs.
        parent = self._active_proc
        p.parent_proc = parent
        # The span tracer this process records into, or None: the only
        # tracing state (repro.obs). Inherited from the spawner, so a traced
        # operation's fan-out stays traced; a top-level process starts with
        # the sim's full-trace tracer.
        p.tracer = self.tracer if parent is None else parent.tracer
        start = Event.__new__(Event)
        start.sim = self
        start.callbacks = [p._resume]
        start._value = PENDING
        start._ok = None
        start._scheduled = True
        start._auto_value = None
        self._ready.append(start)
        p._waiting_on = start
        return p

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

    def _run_callbacks(self, event: Event) -> None:
        callbacks = event.callbacks
        event.callbacks = None
        if len(callbacks) == 1:
            callbacks[0](event)
        elif callbacks:
            self._run_multi(event, callbacks)

    def _run_multi(self, event: Event, callbacks: list) -> None:
        # While callback i runs, the callbacks after it are "pending":
        # the inline resume stays disabled so the freshly-queued events
        # they produce cannot jump ahead of the rest of this pass.
        base = self._cb_pending
        n = len(callbacks)
        try:
            for i in range(n):
                self._cb_pending = base + n - i - 1
                callbacks[i](event)
        finally:
            self._cb_pending = base

    def step(self) -> None:
        """Process a single event."""
        ready = self._ready
        heap = self._heap
        # Heap entries due at ``now`` were scheduled before the clock got
        # here and carry smaller seq values than anything in the deque:
        # drain them first (identical to single-heap (time, seq) order).
        if ready and not (heap and heap[0][0] <= self.now):
            event = ready.popleft()
        else:
            time, _seq, event = heapq.heappop(heap)
            assert time >= self.now, "event scheduled in the past"
            self.now = time
        self._n_steps += 1
        if event._value is Event._PENDING:
            # Pre-scheduled event (Timeout, process kick-off, empty condition)
            # reaching its due time: it succeeds with its auto value.
            event._ok = True
            event._value = event._auto_value
        self._run_callbacks(event)

    def run(self, until: Union[None, float, Event] = None) -> None:
        """Run until the queues drain, simulated time reaches ``until`` (a
        number), or ``until`` (an :class:`Event`) has triggered.

        The event form stops before processing the first event after the
        trigger, and also returns — with ``until`` still pending — if the
        queues drain first; the caller decides what a drained queue means.
        """
        if isinstance(until, Event):
            stop, until = until, None
        else:
            # Runs to the end (of the queues, or of time): never triggers.
            stop = Event(self)
            if until is not None and until < self.now:
                raise SimulationError("cannot run backwards in time")
        ready = self._ready
        heap = self._heap
        pop = heapq.heappop
        PENDING = Event._PENDING
        while stop._value is PENDING and (ready or heap):
            if ready and not (heap and heap[0][0] <= self.now):
                event = ready.popleft()
            else:
                if until is not None and not ready and heap[0][0] > until:
                    self.now = until
                    return
                t, _seq, event = pop(heap)
                self.now = t
            self._n_steps += 1
            if event._value is PENDING:
                event._ok = True
                event._value = event._auto_value
            callbacks = event.callbacks
            event.callbacks = None
            if len(callbacks) == 1:
                callbacks[0](event)
            elif callbacks:
                self._run_multi(event, callbacks)
        if until is not None:
            self.now = until

    def run_process(self, gen: SimGen, name: str = "") -> Any:
        """Convenience: run ``gen`` to completion and return its value.

        Raises the process's exception if it failed. Other already-scheduled
        events continue to be processed as needed.
        """
        proc = self.process(gen, name=name)
        self.run(until=proc)
        if proc._value is Event._PENDING:
            raise SimulationError(
                f"process {proc.name!r} deadlocked: no more events"
            )
        if not proc._ok:
            raise proc._value
        return proc._value
