"""The object-storage interface ArkFS's PRT module targets.

This is the REST surface the paper assumes of "any distributed object storage
system": flat key namespace, whole-object GET/PUT/DELETE, ranged GET, HEAD,
and prefix LIST. All operations are simulation coroutines; implementations
decide what they cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

from ..sim.engine import SimGen
from ..sim.network import Node

__all__ = ["ObjectStore"]


class ObjectStore(ABC):
    """Abstract flat key-value object store.

    ``src`` on each operation names the calling node so implementations can
    charge client-side network costs; ``None`` means "do not model the client
    network leg" (used by unit tests and by server-internal traffic).

    Values are immutable ``bytes``, and that is what lets them be shared
    instead of copied: ``put`` may retain the very object it is given, and
    ``get`` may return the object the store holds. A caller that has a
    ``bytearray`` or ``memoryview`` converts it before the call; nobody can
    alter a value after handing it over or after receiving it. (The data
    object cache relies on both halves — see DESIGN "One copy per byte".)
    """

    @abstractmethod
    def get(self, key: str, src: Optional[Node] = None) -> SimGen:
        """Return the full object value as ``bytes`` — possibly the stored
        object itself, never a view of something mutable. Raises NoSuchKey."""

    @abstractmethod
    def get_range(
        self, key: str, offset: int, length: int, src: Optional[Node] = None
    ) -> SimGen:
        """Return ``value[offset:offset+length]`` (ranged GET). Raises NoSuchKey."""

    @abstractmethod
    def put(self, key: str, data: bytes, src: Optional[Node] = None) -> SimGen:
        """Create or overwrite an object. ``data`` is immutable ``bytes``;
        the store may keep that object rather than a copy of it."""

    @abstractmethod
    def delete(self, key: str, src: Optional[Node] = None) -> SimGen:
        """Remove an object. Raises NoSuchKey if absent."""

    @abstractmethod
    def head(self, key: str, src: Optional[Node] = None) -> SimGen:
        """Return the object size in bytes. Raises NoSuchKey if absent."""

    @abstractmethod
    def list(self, prefix: str, src: Optional[Node] = None) -> SimGen:
        """Return the sorted list of keys starting with ``prefix``."""

    @abstractmethod
    def put_if_absent(self, key: str, data: bytes,
                      src: Optional[Node] = None) -> SimGen:
        """Atomically create the object iff the key does not exist.

        Returns True on creation, False if the key already existed (the
        existing value is untouched). This is RADOS's exclusive-create /
        S3's ``If-None-Match: *`` — ArkFS's two-phase commit uses it for
        rename decision records."""

    # -- batched (scatter-gather) operations --------------------------------
    #
    # One logical request covering many keys. The default implementations
    # fan the per-key operations out as concurrent simulation processes, so
    # a batch pays one round of latency instead of one per key; timing-aware
    # backends (ClusterObjectStore) override them to additionally share the
    # client-NIC enqueue while still contending at the per-OSD queues.
    # Implementations must expose a ``sim`` attribute (they all do).

    # Partial-batch contract (all three batched fallbacks): every per-key
    # sub-operation runs to completion before the batch returns *or* raises
    # — a failure on one key never abandons a sibling mid-flight, and every
    # non-failing sub-operation is applied. On error, the first failure in
    # key order is raised once all keys settle. Batches are therefore
    # idempotent under whole-batch retry: a retry re-applies already-applied
    # items and converges, which is what lets ``RetryingObjectStore`` retry
    # a batched verb whole.

    def _settle(self, gens_by_key) -> SimGen:
        """Run ``(key, gen)`` pairs concurrently; settle every one. Returns
        the per-key payloads, raising the first error in key order only
        after all have completed."""

        def shield(gen: SimGen) -> SimGen:
            try:
                return ("ok", (yield from gen))
            except Exception as exc:  # settle, re-raise after the batch
                return ("err", exc)

        procs = [self.sim.process(shield(gen), name=f"mop:{k}")
                 for k, gen in gens_by_key]
        settled = yield self.sim.all_of(procs)
        for status, payload in settled:
            if status == "err":
                raise payload
        return [payload for _, payload in settled]

    def get_many(self, keys: Sequence[str],
                 src: Optional[Node] = None) -> SimGen:
        """Fetch many objects concurrently.

        Returns a list aligned with ``keys``: ``bytes`` for present objects,
        ``None`` for missing ones (a batch GET tolerates partial absence;
        callers decide whether a hole is an error)."""
        from .errors import NoSuchKey

        def one(key: str) -> SimGen:
            try:
                return (yield from self.get(key, src=src))
            except NoSuchKey:
                return None

        if not keys:
            return []
        if len(keys) == 1:
            return [(yield from one(keys[0]))]
        return (yield from self._settle([(k, one(k)) for k in keys]))

    def put_many(self, items: Sequence[Tuple[str, bytes]],
                 src: Optional[Node] = None) -> SimGen:
        """Store many objects concurrently. Every non-failing PUT is
        applied; the first error in key order is raised after all settle
        (see the partial-batch contract above)."""
        if not items:
            return
        if len(items) == 1:
            yield from self.put(items[0][0], items[0][1], src=src)
            return
        yield from self._settle(
            [(k, self.put(k, v, src=src)) for k, v in items])

    def delete_many(self, keys: Sequence[str],
                    src: Optional[Node] = None) -> SimGen:
        """Delete many objects concurrently, tolerating absent keys
        (idempotent, like journal replay). Returns the count removed."""
        from .errors import NoSuchKey

        def one(key: str) -> SimGen:
            try:
                yield from self.delete(key, src=src)
            except NoSuchKey:
                return 0
            return 1

        if not keys:
            return 0
        if len(keys) == 1:
            return (yield from one(keys[0]))
        removed = yield from self._settle([(k, one(k)) for k in keys])
        return sum(removed)

    # -- conveniences shared by all implementations -------------------------

    def exists(self, key: str, src: Optional[Node] = None) -> SimGen:
        """HEAD-based existence check."""
        from .errors import NoSuchKey

        try:
            yield from self.head(key, src=src)
        except NoSuchKey:
            return False
        return True

    def delete_prefix(self, prefix: str, src: Optional[Node] = None) -> SimGen:
        """LIST + batched DELETE of everything under ``prefix``; returns the
        count removed."""
        keys: List[str] = yield from self.list(prefix, src=src)
        n = yield from self.delete_many(keys, src=src)
        return n
