"""Layer-boundary spans recorded from outside the program.

The traced run wraps — per *instance*, after ``build()`` — the public
generator methods at each layer boundary: FUSE mount ops, ArkFS client ops,
``Node.call`` (by RPC method name), ``Network.send``, the journal manager's
flush/prepare, the data-object cache's read/write/flush/invalidate, and
every object-store verb. Each call records a span (name, simulated start
and end, parent) in memory; nothing is scheduled, so the simulated schedule
is untouched (the worker proves it by comparing every simulated metric with
the untraced run). :meth:`SpanLog.remove` deletes the instance attributes
again, restoring the class methods.

A span's parent is the innermost span open in the same simulation process,
or — for the first span of a spawned process — the innermost one open in
the closest ancestor process. That lookup reads ``Process.parent_proc`` and
the engine's active-process pointer and is isolated in
:meth:`SpanLog._context`. Spans inside ``src/`` are a later issue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

# Span name prefix -> layer. Forwarded ops run the leader's metatable code
# (core.client); lease RPCs run the manager (core.lease); the wire time
# under either is its own child span (net.send -> sim.network).
LAYER_OF_PREFIX = (
    ("posix.", "posix"),
    ("client.", "core.client"),
    ("rpc:lease.", "core.lease"),
    ("rpc:arkfs", "core.client"),
    ("net.", "sim.network"),
    ("journal.", "core.journal"),
    ("cache.", "core.cache"),
    ("store.", "objectstore"),
)

VFS_OPS = ("lookup", "mkdir", "rmdir", "open", "close", "unlink", "stat",
           "lstat", "readdir", "rename", "read", "write", "fsync",
           "truncate", "chmod", "chown", "utimens", "access", "symlink",
           "readlink", "statfs", "getfacl", "setfacl")
CLIENT_OPS = VFS_OPS + ("sync", "drop_caches")
JOURNAL_OPS = ("flush", "flush_all", "prepare")
CACHE_OPS = ("read", "write", "flush", "flush_many", "flush_all",
             "invalidate", "invalidate_many", "drop_all")
STORE_VERBS = ("get", "get_range", "put", "delete", "head", "list",
               "put_if_absent", "get_many", "put_many", "delete_many")


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    raise KeyError(name)


class Span:
    __slots__ = ("name", "start", "end", "parent", "items", "nbytes",
                 "journal_bytes")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.items = 1          # keys in a *_many batch
        self.nbytes = 0         # payload bytes through an object-store verb
        self.journal_bytes = 0  # of which written under a journal key


class SpanLog:
    """In-memory span recorder plus the instance wrappers that feed it."""

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[Span] = []
        self._stacks: Dict[object, List[Span]] = {}
        self._spawn_parent: Dict[object, Optional[Span]] = {}
        self._installed: List[Tuple[object, str]] = []

    # -- context -----------------------------------------------------------

    def _context(self) -> Tuple[List[Span], Optional[Span]]:
        """The open-span stack of the running simulation process and the
        span a new one would be a child of. The only place that reads
        engine internals (``sim._active_proc``, ``Process.parent_proc``)."""
        proc = self.sim._active_proc
        stack = self._stacks.get(proc)
        if stack is None:
            stack = self._stacks[proc] = []
        if stack:
            return stack, stack[-1]
        if proc is None:
            return stack, None
        if proc in self._spawn_parent:
            return stack, self._spawn_parent[proc]
        parent = None
        ancestor = proc.parent_proc
        while ancestor is not None:
            open_spans = self._stacks.get(ancestor)
            if open_spans:
                parent = open_spans[-1]
                break
            if ancestor in self._spawn_parent:
                parent = self._spawn_parent[ancestor]
                break
            ancestor = ancestor.parent_proc
        self._spawn_parent[proc] = parent
        return stack, parent

    def _open(self, name: str) -> Tuple[Span, List[Span]]:
        stack, parent = self._context()
        span = Span(name, self.sim.now, parent)
        self.spans.append(span)
        stack.append(span)
        return span, stack

    def _close(self, span: Span, stack: List[Span]) -> None:
        span.end = self.sim.now
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:      # closed out of order (generator torn down)
            stack.remove(span)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, obj, attr: str, name: str) -> None:
        orig = getattr(obj, attr)

        def traced(*args, **kwargs):
            span, stack = self._open(name)
            try:
                return (yield from orig(*args, **kwargs))
            finally:
                self._close(span, stack)

        self._set(obj, attr, traced)

    def _wrap_call(self, node) -> None:
        orig = node.call

        def traced(target, method, *args, **kwargs):
            span, stack = self._open("rpc:" + method)
            span.items = 0 if target is node else 1   # 1 = crossed the wire
            try:
                return (yield from orig(target, method, *args, **kwargs))
            finally:
                self._close(span, stack)

        self._set(node, "call", traced)

    def _wrap_verb(self, store, verb: str) -> None:
        orig = getattr(store, verb)
        many = verb.endswith("_many")

        def traced(first, *args, **kwargs):
            span, stack = self._open("store." + verb)
            if verb == "put_many":
                span.items = len(first)
                for key, data in first:
                    span.nbytes += len(data)
                    if key[0] == "j":
                        span.journal_bytes += len(data)
            elif many:
                span.items = len(first)
            elif verb in ("put", "put_if_absent"):
                span.nbytes = len(args[0])
                if first[0] == "j":
                    span.journal_bytes = span.nbytes
            try:
                result = yield from orig(first, *args, **kwargs)
            finally:
                self._close(span, stack)
            if verb in ("get", "get_range"):
                span.nbytes = len(result)
            elif verb == "get_many":
                span.nbytes = sum(len(d) for d in result if d is not None)
            return result

        self._set(store, verb, traced)

    def _set(self, obj, attr: str, fn) -> None:
        setattr(obj, attr, fn)
        self._installed.append((obj, attr))

    def install(self, cluster, mounts) -> None:
        """Wrap every layer boundary of a built cluster."""
        for mount in mounts:
            for op in VFS_OPS:
                self._wrap(mount, op, "posix." + op)
        for client in cluster.clients:
            for op in CLIENT_OPS:
                self._wrap(client, op, "client." + op)
            for op in JOURNAL_OPS:
                self._wrap(client.journal, op, "journal." + op)
            for op in CACHE_OPS:
                self._wrap(client.cache, op, "cache." + op)
        for node in cluster.net.nodes.values():
            self._wrap_call(node)
        self._wrap(cluster.net, "send", "net.send")
        for verb in STORE_VERBS:
            self._wrap_verb(cluster.store, verb)

    def remove(self) -> None:
        """Delete every instance wrapper (class methods show through again)."""
        for obj, attr in self._installed:
            delattr(obj, attr)
        self._installed.clear()


def attribute(spans: List[Span], window: Tuple[float, float]
              ) -> Tuple[Dict[str, float], float]:
    """Partition foreground simulated time among layers.

    Foreground roots are parentless spans that start inside ``window`` and
    belong to the ``posix`` layer (root ops) or are a client ``sync`` (the
    end-of-phase flush). Each root's duration is split exactly: an instant
    covered by no child belongs to the span's own layer (its *self time*);
    an instant covered by ``k`` concurrent children is shared ``1/k`` each,
    recursively, with children clipped to their parent. Returns
    ``({layer: seconds}, background_seconds)`` where background is the
    summed duration of all other parentless spans (journal threads,
    lease keepers, tier tickers).
    """
    children: Dict[Span, List[Span]] = {}
    roots: List[Span] = []
    for span in spans:
        if span.parent is None:
            roots.append(span)
        else:
            children.setdefault(span.parent, []).append(span)
    layers = {span.name: layer_of(span.name) for span in spans}
    acc: Dict[str, float] = {}

    def share(span: Span, lo: float, hi: float, weight: float) -> None:
        kids = [(max(k.start, lo), min(k.end, hi), k)
                for k in children.get(span, ())]
        kids = [k for k in kids if k[1] > k[0]]
        own = layers[span.name]
        if not kids:
            acc[own] = acc.get(own, 0.0) + weight * (hi - lo)
            return
        cuts = sorted({lo, hi, *(k[0] for k in kids), *(k[1] for k in kids)})
        for a, b in zip(cuts, cuts[1:]):
            active = [k for s, e, k in kids if s <= a and e >= b]
            if not active:
                acc[own] = acc.get(own, 0.0) + weight * (b - a)
            else:
                for kid in active:
                    share(kid, a, b, weight / len(active))

    background = 0.0
    lo, hi = window
    for root in roots:
        foreground = (lo <= root.start <= hi and
                      (layers[root.name] == "posix"
                       or root.name == "client.sync"))
        if not foreground:
            background += root.end - root.start
        elif root.end > root.start:
            share(root, root.start, root.end, 1.0)
    return acc, background
