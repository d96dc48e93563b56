"""Span tracing over simulated time.

A :class:`Span` is pure bookkeeping: opening one reads ``sim.now`` and
pushes it onto a per-process stack; closing it reads ``sim.now`` again and
appends the finished span to the tracer. No events are scheduled and no
process state is touched, so *enabling tracing can never perturb simulated
time*: every timestamp, result, and the order of events is identical with
tracing on or off.

With tracing disabled (``sim._tracer is None``, the default) instrumented
hot paths pay a single attribute check; the :func:`span` helper returns a
shared no-op context manager, so no span objects are allocated at all.

*Sampled* tracing sits between the two: the tracer is installed as
``sim._sample_tracer`` and a deterministic per-root-op hash decides which
operations trace (:class:`RootOpObserver`). ``Process._resume`` then makes
``sim._tracer`` context-local — non-``None`` exactly while stepping a
process inside a sampled op — so sampled ops get full spans while every
other op pays only the single attribute check.

Parenting across fan-outs: the engine records which process spawned which
(:attr:`Process.parent_proc`) and which process is currently being stepped
(:attr:`Simulator._active_proc`). A span opened in a process whose own
stack is empty parents onto the innermost open span of its spawner (cached
at first use), so the per-item spans inside a ``get_many`` scatter still
hang off the VFS read that caused them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["Span", "SpanTracer", "span", "NULL_SPAN", "ROOT_CAT",
           "RootOpObserver", "sample_threshold", "is_sampled"]

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


class _NullSpan:
    """Shared no-op stand-in used while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def close(self) -> None:
        pass


NULL_SPAN = _NullSpan()


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
        """Drive ``gen`` to completion inside a span (generator helper)."""
        with self.span(name, cat, **args):
            return (yield from gen)


def span(sim, name: str, cat: str = ""):
    """Open a span on ``sim``'s tracer, or the shared no-op when disabled."""
    tr = sim._tracer
    if tr is None:
        return NULL_SPAN
    return tr.span(name, cat)


class RootOpObserver:
    """The per-root-op pipeline behind always-on observability.

    Installed as ``sim._obs_ops`` (by :class:`repro.obs.Observability`)
    when any of sampled tracing, the slow-op log, or the flight recorder is
    enabled; the mount layer's VFS-op wrapper then routes every root
    operation through :meth:`observe` instead of the plain span wrapper.

    Sampling contract: each root op draws a sequential id and is sampled
    iff ``hash(id) < rate * 2^32`` (see :func:`is_sampled`) — a
    deterministic decision, so two runs of the same workload sample the
    same ops. A sampled op sets the current process's ``trace_on`` bit for
    its duration (spawned children inherit it), which makes
    ``sim._tracer`` context-local via ``Process._resume``: every span site
    below keeps its single attribute check and pays the trace cost only
    inside sampled ops. Spans never schedule events, so simulated results
    are bit-identical with sampling on or off.
    """

    __slots__ = ("sim", "tracer", "threshold", "rate", "slowlog", "recorder",
                 "_c_root", "_c_sampled")

    def __init__(self, sim, c_root, c_sampled):
        self.sim = sim
        self.tracer: Optional[SpanTracer] = None  # sampling tracer
        self.threshold = 0
        self.rate = 0.0
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

    def observe(self, name: str, gen):
        """Drive one root-op generator under sampling/slowlog/recorder."""
        sim = self.sim
        c = self._c_root
        opid = c.value
        c.value = opid + 1
        tr = self.tracer
        span = None
        proc = None
        prev = False
        if tr is not None:
            if ((opid * _HASH_MULT) & _HASH_MASK) < self.threshold:
                self._c_sampled.value += 1
                proc = sim._active_proc
                if proc is not None:
                    prev = proc.trace_on
                    proc.trace_on = True
                sim._tracer = tr
                span = tr.span(name, ROOT_CAT, op=opid)
        else:
            ftr = sim._tracer
            if ftr is not None:
                # Full (unsampled) tracing installed alongside slowlog /
                # recorder: open the root span exactly as the plain
                # wrapper would.
                span = ftr.span(name, ROOT_CAT)
        rec = self.recorder
        if rec is not None:
            # FlightRecorder.record() inlined (here and for op.end): these
            # two appends run for every root op, where the call overhead
            # is measurable against the 5% always-on budget.
            rec.recorded += 1
            rec.events.append((sim.now, "op.start",
                               {"op": name, "id": opid,
                                "sampled": span is not None}))
        start = sim.now
        ok = True
        try:
            return (yield from gen)
        except BaseException:
            ok = False
            raise
        finally:
            end = sim.now
            if span is not None:
                span.close()
            if proc is not None:
                proc.trace_on = prev
                sim._tracer = tr if prev else None
            if rec is not None:
                rec.recorded += 1
                rec.events.append((end, "op.end",
                                   {"op": name, "id": opid, "ok": ok,
                                    "dur": end - start}))
            if self.slowlog is not None:
                self.slowlog.observe(name, start, end, ok, span)
