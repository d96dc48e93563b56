"""Span tracing over simulated time.

A :class:`Span` is pure bookkeeping: opening one reads ``sim.now`` and
pushes it onto a per-process stack; closing it reads ``sim.now`` again and
appends the finished span to the tracer. No events are scheduled and no
process state is touched, so *enabling tracing can never perturb simulated
time*: every timestamp, result, and the order of events is identical with
tracing on or off.

The only tracing state is one field of the running process,
``Process.tracer``: the tracer it records into, or ``None``. A spawned
process inherits its spawner's; a top-level one starts with the sim's
full-trace tracer (``Simulator.tracer``, ``None`` unless full tracing is
on). The root-op observer sets the field for the duration of a sampled
operation (:class:`RootOpObserver`), and :meth:`SpanTracer.wrap` does the
same for a bare generator. Full tracing is sampling at rate 1.

Spans are recorded in two places. *Primitive* spans — CPU holds,
transfers, network latency, queue waits, service, the FUSE crossing, the
categories latency attribution reads — are opened by the few ``repro.sim``
primitives and waits that alone can tell queueing from service; each reads
``sim._active_proc.tracer`` and, untraced, allocates nothing. *Layer*
spans are recorded from outside the code they time: :data:`LAYER_SPANS`
names each layer boundary, and :func:`install_layer_spans` puts a
dispatcher on every such method of a built cluster's instances (with full
tracing the bench harness does so for every build). A sampled operation
records its root and primitive spans only.

Parenting across fan-outs: the engine records which process spawned which
(:attr:`Process.parent_proc`) and which process is currently being stepped
(:attr:`Simulator._active_proc`). A span opened in a process whose own
stack is empty parents onto the innermost open span of its spawner (cached
at first use), so the per-key work inside a ``get_many`` scatter still
hangs off the VFS read that caused them. A spawner with no span open any
more lends the span it closed last: background work an op spawned (a
checkpoint after fsync or mkdir) still roots at that op's root span when
it first records after the op returned.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "SpanTracer", "ROOT_CAT", "RootOpObserver",
           "sample_threshold", "is_sampled", "LAYER_SPANS",
           "install_layer_spans", "remove_layer_spans"]

#: Category that marks operation root spans (one per VFS op).
ROOT_CAT = "vfs"

_MISSING = object()

# -- deterministic per-op sampling --------------------------------------------

#: Knuth's multiplicative-hash constant (2^32 / phi): maps sequential op
#: ids to a low-discrepancy sequence over [0, 2^32), so comparing the hash
#: against ``rate * 2^32`` samples an evenly spread, *deterministic* subset
#: of operations — the same ops every run, independent of timing.
_HASH_MULT = 2654435761
_HASH_MASK = 0xFFFFFFFF


def sample_threshold(rate: float) -> int:
    """The 32-bit threshold below which a hashed op id counts as sampled."""
    return max(0, min(1 << 32, int(float(rate) * float(1 << 32))))


def is_sampled(opid: int, threshold: int) -> bool:
    """The sampling decision for root-op ``opid`` (deterministic)."""
    return ((opid * _HASH_MULT) & _HASH_MASK) < threshold


class Span:
    """One timed interval in simulated time. Usable as a context manager."""

    __slots__ = ("name", "cat", "start", "end", "args", "parent", "tid",
                 "phase", "_tracer")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str,
                 args: Optional[Dict[str, Any]], parent: Optional["Span"],
                 tid: int, phase: str, start: float):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.parent = parent
        self.tid = tid
        self.phase = phase
        self.start = start
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else
                self._tracer.sim.now) - self.start

    def close(self) -> None:
        if self.end is None:
            self._tracer._close(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class SpanTracer:
    """Collects spans for one simulation, keyed by simulation process."""

    def __init__(self, sim, pid: int = 1, pid_name: str = "sim"):
        self.sim = sim
        self.pid = pid
        self.pid_name = pid_name
        self.phase = ""
        self.spans: List[Span] = []          # closed spans, in close order
        self.tid_names: Dict[int, str] = {}
        self._stacks: Dict[Any, List[Span]] = {}   # Process (or None) -> open
        self._tids: Dict[int, int] = {}            # id(process) -> tid
        self._spawn_parent: Dict[int, Optional[Span]] = {}
        self._ended: Dict[Any, Span] = {}   # process key -> last bottom span
        self._procs: List[Any] = []   # keeps traced processes alive so the
        self._next_tid = 1            # id()-keyed maps above stay unambiguous

    # -- opening / closing --------------------------------------------------

    def span(self, name: str, cat: str = "", **args) -> Span:
        """Open a span under the currently-stepped process."""
        proc = self.sim._active_proc
        key = id(proc) if proc is not None else None
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
            if proc is not None:
                self._procs.append(proc)
        parent = stack[-1] if stack else self._resolve_spawn_parent(proc)
        s = Span(self, name, cat, args or None, parent, self._tid_for(proc),
                 self.phase, self.sim.now)
        stack.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = self.sim.now
        proc = self.sim._active_proc
        key = id(proc) if proc is not None else None
        stack = self._stacks.get(key)
        if stack and stack[-1] is s:
            stack.pop()
            if not stack:
                self._ended[key] = s
        else:
            # Closed from another frame (generator GC'd, interrupt unwind):
            # remove the span from whichever stack holds it.
            for st in self._stacks.values():
                if s in st:
                    st.remove(s)
                    break
        self.spans.append(s)

    # -- parent / thread resolution -----------------------------------------

    def _resolve_spawn_parent(self, proc) -> Optional[Span]:
        """The span that was innermost-open when ``proc``'s chain was
        spawned; cached so one process keeps a consistent parent."""
        if proc is None:
            return None
        got = self._spawn_parent.get(id(proc), _MISSING)
        if got is not _MISSING:
            return got
        parent_span: Optional[Span] = None
        p = proc.parent_proc
        while p is not None:
            stack = self._stacks.get(id(p))
            if stack:
                parent_span = stack[-1]
                break
            # A spawner whose spans have all closed, as an op that returned
            # before its background work opened a span: the spawn belongs
            # to the span it closed last, not to the spawner's own parent.
            ended = self._ended.get(id(p))
            if ended is not None:
                parent_span = ended
                break
            got = self._spawn_parent.get(id(p), _MISSING)
            if got is not _MISSING:
                parent_span = got
                break
            p = p.parent_proc
        if parent_span is None:
            stack = self._stacks.get(None)
            parent_span = stack[-1] if stack else None
        self._spawn_parent[id(proc)] = parent_span
        return parent_span

    def _tid_for(self, proc) -> int:
        if proc is None:
            self.tid_names.setdefault(0, "main")
            return 0
        tid = self._tids.get(id(proc))
        if tid is None:
            tid = self._next_tid
            self._next_tid += 1
            self._tids[id(proc)] = tid
            self.tid_names[tid] = proc.name or f"proc{tid}"
        return tid

    # -- convenience --------------------------------------------------------

    def wrap(self, name: str, gen, cat: str = ROOT_CAT, **args):
        """Drive ``gen`` to completion inside a span, with the running
        process traced into this tracer meanwhile (generator helper)."""
        proc = self.sim._active_proc
        prev = proc.tracer
        proc.tracer = self
        try:
            with self.span(name, cat, **args):
                return (yield from gen)
        finally:
            proc.tracer = prev


class RootOpObserver:
    """The per-root-op pipeline behind always-on observability.

    Installed as ``sim._obs_ops`` (by :class:`repro.obs.Observability`)
    when any of tracing, the slow-op log, or the flight recorder is
    enabled. Every public mount-layer VFS op is a root op: its own frame
    calls :meth:`begin` when it starts running and :meth:`end` with the
    token when it finishes, so the observer adds two calls per op and no
    frame to the op's resume path.

    Sampling contract: each root op draws a sequential id and is sampled
    iff ``hash(id) < rate * 2^32`` (see :func:`is_sampled`) — a
    deterministic decision, so two runs of the same workload sample the
    same ops; at rate 1 (full tracing) every op is. A sampled op gets a
    root span and sets the running process's ``tracer`` for its duration
    (spawned children inherit it), so the primitives under it record
    spans and nothing outside it does. Spans never schedule events, so
    simulated results are bit-identical at any rate.
    """

    __slots__ = ("sim", "tracer", "threshold", "slowlog", "recorder",
                 "_c_root", "_c_sampled")

    def __init__(self, sim, c_root, c_sampled):
        self.sim = sim
        self.tracer: Optional[SpanTracer] = None
        self.threshold = 0
        self.slowlog = None       # repro.obs.slowlog.SlowOpLog
        self.recorder = None      # repro.obs.recorder.FlightRecorder
        self._c_root = c_root         # Counter: obs.root_ops
        self._c_sampled = c_sampled   # Counter: obs.sampled_ops

    @property
    def n_root(self) -> int:
        return self._c_root.value

    @property
    def n_sampled(self) -> int:
        return self._c_sampled.value

    def expected_sampled(self) -> int:
        """Exactly how many of the ops seen so far the hash samples."""
        t = self.threshold
        return sum(1 for i in range(self._c_root.value) if is_sampled(i, t))

    def begin(self, name: str) -> tuple:
        """Start root op ``name`` in the running process: draw its id,
        sample it (a sampled op gets its root span and traces the process
        until :meth:`end`), and record ``op.start``. Returns the token
        :meth:`end` takes."""
        sim = self.sim
        c = self._c_root
        opid = c.value
        c.value = opid + 1
        start = sim.now
        tr = self.tracer
        if (tr is not None
                and ((opid * _HASH_MULT) & _HASH_MASK) < self.threshold):
            self._c_sampled.value += 1
            proc = sim._active_proc
            prev = proc.tracer
            proc.tracer = tr
            token = (name, opid, start, tr.span(name, ROOT_CAT, op=opid),
                     proc, prev)
        else:
            token = (name, opid, start, None, None, None)
        rec = self.recorder
        if rec is not None:
            # FlightRecorder.record() inlined (here and for op.end): these
            # two appends run for every root op, where the call overhead
            # is measurable against the 5% always-on budget.
            rec.recorded += 1
            rec.events.append((start, "op.start",
                               {"op": name, "id": opid,
                                "sampled": token[3] is not None}))
        return token

    def end(self, token: tuple, ok: bool) -> None:
        """Finish the root op :meth:`begin` returned ``token`` for: close
        its root span and restore the process's tracer, record ``op.end``,
        and feed the slow-op log. ``ok`` is False when the op raised."""
        name, opid, start, span, proc, prev = token
        end = self.sim.now
        if span is not None:
            span.close()
            proc.tracer = prev
        rec = self.recorder
        if rec is not None:
            rec.recorded += 1
            rec.events.append((end, "op.end",
                               {"op": name, "id": opid, "ok": ok,
                                "dur": end - start}))
        if self.slowlog is not None:
            self.slowlog.observe(name, start, end, ok, span)


# -- layer spans, recorded from outside ----------------------------------------

#: The layer boundaries a full trace records: ``(component, category,
#: {method: span name})``. A component is an attribute of the built cluster
#: or, after ``clients.``, of each of its clients; a build without it skips
#: the row. Every node's ``Node.call`` is one more boundary, spanned
#: ``rpc:<method>``.
LAYER_SPANS = (
    ("store", "store", {verb: "store." + verb for verb in (
        "get", "get_range", "put", "delete", "head", "put_if_absent",
        "get_many", "put_many", "delete_many")}),
    ("mds", "mds", {"call": "mds.call"}),
    ("clients.prt", "prt", {m: "prt." + m for m in (
        "read_data", "write_data", "truncate_data", "delete_data")}),
    ("clients.cache", "cache", {"read": "cache.read", "write": "cache.write",
                                "_fetch": "cache.fetch",
                                "_writeback": "cache.writeback"}),
    ("clients.journal", "journal", {"_commit_locked": "journal.commit",
                                    "_checkpoint_locked": "journal.ckpt"}),
)


def _components(cluster, where: str) -> List[Any]:
    """The distinct objects a :data:`LAYER_SPANS` row names on ``cluster``."""
    owner, _, attr = where.rpartition(".")
    owners = getattr(cluster, "clients", ()) if owner else (cluster,)
    found = [getattr(o, attr, None) for o in owners]
    return list({id(o): o for o in found if o is not None}.values())


def _dispatcher(sim, orig, name: str, cat: str):
    """``orig``'s generator as is for an untraced process, else inside a
    span on the process's tracer."""

    def dispatch(*args, **kwargs):
        proc = sim._active_proc
        tr = sim.tracer if proc is None else proc.tracer
        if tr is None:
            return orig(*args, **kwargs)
        return tr.wrap(name, orig(*args, **kwargs), cat)

    return dispatch


def _rpc_dispatcher(sim, orig):
    """:func:`_dispatcher` for ``Node.call``: spanned ``rpc:<method>``."""

    def dispatch(target, method, *args, **kwargs):
        proc = sim._active_proc
        tr = sim.tracer if proc is None else proc.tracer
        if tr is None:
            return orig(target, method, *args, **kwargs)
        return tr.wrap("rpc:" + method, orig(target, method, *args, **kwargs),
                       "rpc", dst=target.name)

    return dispatch


def install_layer_spans(cluster) -> List[Tuple[Any, str]]:
    """Put a dispatcher on every :data:`LAYER_SPANS` method of a built
    cluster's instances, and on every node's ``call``.

    A method the table names and a component lacks raises
    ``AttributeError`` here. Returns the ``(object, method)`` pairs
    installed, for :func:`remove_layer_spans`. Objects a component creates
    later (a restarted client's journal) are not covered."""
    sim = cluster.sim
    installed = []
    for where, cat, methods in LAYER_SPANS:
        for obj in _components(cluster, where):
            for attr, name in methods.items():
                setattr(obj, attr, _dispatcher(sim, getattr(obj, attr),
                                               name, cat))
                installed.append((obj, attr))
    net = getattr(cluster, "net", None)
    for node in (net.nodes.values() if net is not None else ()):
        node.call = _rpc_dispatcher(sim, node.call)
        installed.append((node, "call"))
    return installed


def remove_layer_spans(installed: List[Tuple[Any, str]]) -> None:
    """Delete the dispatchers again: the class methods show through."""
    for obj, attr in installed:
        delattr(obj, attr)
