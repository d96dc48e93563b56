"""The user-level data object cache (Section III-D).

Serves the role of the kernel page cache for ArkFS: 2 MB cache entries
(matching the PRT data-object size) indexed by a radix tree, write-back for
dirty data, and an adaptive read-ahead window per open file that doubles on
sequential reads up to ``max_readahead`` (8 MB by default, as in CephFS) —
and jumps straight to the maximum when a file is read from offset 0.

The same class backs the baseline file systems' client caches (kernel page
cache for CephFS mounts, goofys' stream read-ahead) with different
parameters, so bandwidth comparisons exercise one code path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..obs import Observability
from ..obs.trace import span as _span
from ..sim.engine import Event, SimGen, Simulator
from ..sim.network import Node
from .prt import PRT
from .radix import RadixTree

__all__ = ["CacheEntry", "ReadAheadState", "DataObjectCache"]


class CacheEntry:
    """One cached data object (at most ``entry_size`` bytes; ``size`` of
    them valid), held so that the host copies a byte only where the model
    charges a copy. Three states, chosen by what the code observes:

    * **tail** — ``data`` is an immutable ``bytes`` base (``b""`` on a
      fresh entry) and ``tail`` the immutable pieces appended after it: a
      sequential writer's payloads, *borrowed* (a reference, no copy).
    * **immutable** — ``data`` is one ``bytes`` and ``tail`` is empty: what
      a fetch got from the store, what a tail folded into, or the snapshot
      a writeback took. The same object may be held by the store, the
      caller of ``read`` and the cache at once; nobody can change it.
    * **in place** — ``data`` is a private ``bytearray`` capacity buffer
      that grows geometrically and takes writes as equal-length slice
      assignments. Bytes past ``size`` are zero (``size`` never shrinks,
      so a gap write finds its gap zeroed) and never observable: reads
      and snapshots clip at ``size``.

    Appends at ``size`` onto the first two states extend the tail; any
    other write copies the entry into the in-place state (copy-on-write);
    the first read of a tail joins it into one ``bytes``, and a tail that
    grew on an earlier join goes in place instead, so alternating appends
    and reads stay linear; a writeback (``DataObjectCache._writeback``)
    leaves the entry immutable and ships the very object it keeps (see
    DESIGN "One copy per byte")."""

    __slots__ = ("index", "data", "tail", "size", "dirty", "loading",
                 "backed")

    def __init__(self, index: int):
        self.index = index
        self.data = b""
        self.tail: list = []
        self.size = 0
        self.dirty = False
        self.loading: Optional[Event] = None  # set while a fetch is in flight
        self.backed = False  # a plain ``d`` object exists for this chunk
                             # (kept by a packing cache: a seal purges it)

    @property
    def ready(self) -> bool:
        return self.loading is None

    def fold(self, entry_size: int) -> None:
        """Make a tail contiguous for a reader. With no base yet this is
        the one join of a sequentially written entry; a tail on top of a
        base has been read (or stored) before and will be again, so it
        moves in place with room to double instead of re-joining the
        whole entry on every append/read round."""
        if self.data:
            self.unshare(min(2 * self.size, entry_size))
        else:
            self.data = b"".join(self.tail)
            self.tail.clear()

    def unshare(self, cap: int) -> bytearray:
        """Copy-on-write: move the bytes into a private zero-padded
        ``bytearray`` of ``cap`` bytes (the in-place state)."""
        buf = bytearray(cap)
        d = self.data
        pos = len(d)
        buf[:pos] = d
        for piece in self.tail:
            end = pos + len(piece)
            buf[pos:end] = piece
            pos = end
        self.tail.clear()
        self.data = buf
        return buf


@dataclass
class ReadAheadState:
    """Per-open-file read-ahead bookkeeping ("each file has a read-ahead
    window")."""

    window: int = 0              # current window in bytes
    next_offset: int = -1        # expected offset of the next sequential read
    started: bool = False

    def on_read(self, offset: int, size: int, entry_size: int,
                max_readahead: int) -> None:
        if not self.started and offset == 0:
            # Read from the very beginning: expect a full sequential pass,
            # open the window to the maximum immediately.
            self.window = max_readahead
        elif offset == self.next_offset:
            self.window = min(max(self.window * 2, entry_size), max_readahead)
        else:
            self.window = entry_size  # random access: shrink back
        self.started = True
        self.next_offset = offset + size


def _turn(sim: Simulator) -> SimGen:
    """A free copy: nothing to charge, one ``timeout(0)`` all the same."""
    yield sim.timeout(0)


class _FileCache:
    __slots__ = ("ino", "tree", "version")

    def __init__(self, ino: int):
        self.ino = ino
        self.tree = RadixTree()
        self.version = 0


class DataObjectCache:
    """Write-back object cache with read-ahead, shared by one client."""

    def __init__(self, sim: Simulator, prt: PRT, node: Optional[Node],
                 entry_size: int, capacity_bytes: int, max_readahead: int,
                 copy_bw: float = 8e9, writeback_parallel: int = 8,
                 fetch_parallel: int = 16):
        if entry_size != prt.data_object_size:
            raise ValueError("cache entry size must equal the PRT object size")
        self.sim = sim
        self.prt = prt
        self.node = node
        # Where a fetch finds a chunk: bound once, so a layer costs no call.
        self._read_chunk = prt.read_object
        self.entry_size = entry_size
        self.capacity = max(1, capacity_bytes // entry_size)
        self.max_readahead = max_readahead
        self.copy_bw = copy_bw
        # Dirty entries are written back by this many concurrent "flusher
        # threads" (pdflush-style) — serializing PUTs here would wrongly
        # throttle sequential write bandwidth to one object per RTT.
        self.writeback_parallel = max(1, writeback_parallel)
        # A demand read scatters this many concurrent GETs for the entries
        # it misses (1 = the serial ablation: one object-store RTT each).
        self.fetch_parallel = max(1, fetch_parallel)
        self._files: Dict[int, _FileCache] = {}
        self._lru: "OrderedDict[Tuple[int, int], CacheEntry]" = OrderedDict()
        self._reserved = 0        # cache slots claimed by scheduled prefetches
        # Metrics live in the sim-wide registry, namespaced per client so
        # multiple caches in one simulation don't merge; the objects are
        # pre-bound here so a count on the hot path is one attribute bump.
        obs = Observability.of(sim)
        label = node.name if node is not None else f"anon{id(self):x}"
        m = obs.metrics.scope(label + ".cache")
        self._c_hits = m.counter("hits")
        self._c_misses = m.counter("misses")
        self._c_prefetches = m.counter("prefetches")
        self._c_flushes = m.counter("flushes")
        self._c_evictions = m.counter("evictions")
        # fan-out observability: batched vs serial object ops, high-water
        # in-flight counts, and batch sizes
        self._c_batched_gets = m.counter("batched_gets")
        self._c_serial_gets = m.counter("serial_gets")
        self._c_batched_puts = m.counter("batched_puts")
        self._c_serial_puts = m.counter("serial_puts")
        self._c_fetch_batches = m.counter("fetch_batches")
        self._c_wb_batches = m.counter("wb_batches")
        self._g_fetch_batch = m.gauge("fetch_batch")
        self._g_wb_batch = m.gauge("wb_batch")
        self._g_inflight_gets = m.gauge("inflight_gets")
        self._g_inflight_puts = m.gauge("inflight_puts")

    @property
    def stats(self) -> Dict[str, int]:
        """Legacy snapshot of this cache's counters (deprecated shim).

        Previously a live dict mutated in place; the keys and meanings are
        unchanged, but the returned dict is now a point-in-time copy backed
        by the metrics registry."""
        return {
            "hits": self._c_hits.value,
            "misses": self._c_misses.value,
            "prefetches": self._c_prefetches.value,
            "flushes": self._c_flushes.value,
            "evictions": self._c_evictions.value,
            "batched_gets": self._c_batched_gets.value,
            "serial_gets": self._c_serial_gets.value,
            "batched_puts": self._c_batched_puts.value,
            "serial_puts": self._c_serial_puts.value,
            "fetch_batches": self._c_fetch_batches.value,
            "wb_batches": self._c_wb_batches.value,
            "max_fetch_batch": self._g_fetch_batch.max_value,
            "max_wb_batch": self._g_wb_batch.max_value,
            "max_inflight_gets": self._g_inflight_gets.max_value,
            "max_inflight_puts": self._g_inflight_puts.max_value,
        }

    # -- internals -------------------------------------------------------------

    def _wait(self, ev: Event) -> SimGen:
        """Wait on an in-flight fetch, attributed as queueing when traced."""
        tr = self.sim._tracer
        if tr is not None:
            with tr.span("cache.wait", "queue"):
                yield ev
        else:
            yield ev

    def _file(self, ino: int) -> _FileCache:
        fc = self._files.get(ino)
        if fc is None:
            fc = _FileCache(ino)
            self._files[ino] = fc
        return fc

    def _touch(self, ino: int, entry: CacheEntry) -> None:
        self._lru[(ino, entry.index)] = entry
        self._lru.move_to_end((ino, entry.index))

    def _room(self, have: int, need: int) -> int:
        """Capacity for an in-place buffer of ``have`` bytes that must hold
        ``need``: geometric (clipped to the entry's natural size), so a
        sequential fill costs O(1) reallocs amortized instead of one
        realloc+copy per write."""
        return min(max(need, 2 * have), max(need, self.entry_size))

    def _copy_cost(self, nbytes: int) -> SimGen:
        """The one memcpy the model charges per ``read``/``write``. Like
        ``Node.work``, returns the generator to iterate rather than
        wrapping it in a frame of its own; without a node (or bytes) the
        caller still takes one scheduler turn."""
        if self.node is not None and nbytes > 0:
            return self.node.work(nbytes / self.copy_bw)
        return _turn(self.sim)

    def _make_room(self, need: int = 1) -> SimGen:
        need = min(max(1, need), self.capacity)
        while len(self._lru) + need > self.capacity:
            victim_key = None
            dirty_batch = []
            for key, entry in self._lru.items():
                if not entry.ready:
                    continue
                if victim_key is None:
                    victim_key = key
                if entry.dirty and len(dirty_batch) < self.writeback_parallel:
                    dirty_batch.append((key[0], entry))
            if victim_key is None:
                # Everything is mid-fetch; wait for one fetch to land.
                first = next(iter(self._lru.values()))
                yield from self._wait(first.loading)
                continue
            if len(dirty_batch) > 1:
                # Flush a batch of dirty LRU entries concurrently (the
                # flusher-thread pool), so eviction pressure doesn't
                # serialize object PUTs. State may change while we wait, so
                # re-evaluate the victim afterwards.
                yield from self._writeback_batch(dirty_batch)
                continue
            ino, idx = victim_key
            entry = self._lru.pop(victim_key)
            if entry.dirty:
                yield from self._writeback(ino, entry)
            fc = self._files.get(ino)
            if fc is not None:
                fc.tree.delete(idx)
                if not fc.tree:
                    del self._files[ino]
            self._c_evictions.inc()

    def _writeback(self, ino: int, entry: CacheEntry) -> SimGen:
        if not entry.dirty:
            return
        # Clear the flag before the PUT: a write landing mid-flush re-dirties
        # the entry rather than getting silently marked clean.
        entry.dirty = False
        # The valid bytes as one immutable object — at most one copy: none
        # for an immutable entry or a single borrowed piece, one join for a
        # longer tail, one for an in-place buffer. The entry keeps that
        # object as its data, so the store shares it with the cache, and a
        # write landing mid-flush appends to it or copies it: it cannot
        # reach the PUT.
        snapshot = entry.data
        if entry.tail:
            snapshot = b"".join([snapshot, *entry.tail] if snapshot
                                else entry.tail)
            entry.tail.clear()
        elif type(snapshot) is not bytes:
            snapshot = bytes(memoryview(snapshot)[:entry.size])
        entry.data = snapshot
        self._g_inflight_puts.add(1)
        sp = _span(self.sim, "cache.writeback", "cache")
        try:
            yield from self.prt.write_object(ino, entry.index, snapshot,
                                             src=self.node)
        except Exception:
            entry.dirty = True
            raise
        finally:
            sp.close()
            self._g_inflight_puts.add(-1)
        self._c_flushes.inc()
        rec = self.sim._recorder
        if rec is not None:
            rec.record("cache.writeback", ino=ino, idx=entry.index,
                       bytes=entry.size)

    def _writeback_batch(self, pairs) -> SimGen:
        """Write a batch of dirty ``(ino, entry)`` pairs back concurrently
        (one flusher-pool round)."""
        if not pairs:
            return
        if len(pairs) == 1:
            self._c_serial_puts.inc()
            yield from self._writeback(*pairs[0])
            return
        self._c_wb_batches.inc()
        self._c_batched_puts.inc(len(pairs))
        self._g_wb_batch.track(len(pairs))
        flushes = [
            self.sim.process(self._writeback(ino, e),
                             name=f"wb:{ino:x}:{e.index}")
            for ino, e in pairs
        ]
        yield self.sim.all_of(flushes)

    def _writeback_many(self, pairs) -> SimGen:
        """Scatter dirty entries across the flusher pool,
        ``writeback_parallel`` PUTs at a time — the shared path behind
        ``flush``/``flush_all``/``invalidate``/``drop_all``."""
        for start in range(0, len(pairs), self.writeback_parallel):
            yield from self._writeback_batch(
                pairs[start:start + self.writeback_parallel])

    def _fetch(self, ino: int, index: int) -> SimGen:
        """Install a loading entry and fill it from storage.

        Idempotent under races: if another fetch (demand or read-ahead)
        installed the entry between our admission check and now, join its
        in-flight ``loading`` event instead of issuing a second GET."""
        fc = self._file(ino)
        existing = fc.tree.get(index)
        if existing is not None:
            if existing.loading is not None:
                yield from self._wait(existing.loading)
            return existing
        entry = CacheEntry(index)
        entry.loading = self.sim.event()
        fc.tree.set(index, entry)
        self._touch(ino, entry)
        self._g_inflight_gets.add(1)
        sp = _span(self.sim, "cache.fetch", "cache")
        try:
            data = yield from self._read_chunk(ino, index, src=self.node)
        except Exception as exc:
            fc.tree.delete(index)
            self._lru.pop((ino, index), None)
            entry.loading.fail(exc)
            raise
        finally:
            sp.close()
            self._g_inflight_gets.add(-1)
        # Keep the store's own immutable object (``ObjectStore.get`` may
        # return what it holds); anything else is copied once, here.
        entry.data = data if type(data) is bytes else bytes(data)
        entry.size = len(data)
        ev, entry.loading = entry.loading, None
        ev.succeed(entry)
        return entry

    def _fetch_missing(self, ino: int, tree: RadixTree, indices) -> SimGen:
        """Scatter phase of a demand read: collect every entry the request
        misses up front and fetch them concurrently, ``fetch_parallel`` GETs
        at a time. Entries another reader or the read-ahead already has in
        flight are skipped — their ``loading`` events are shared during
        assembly, so no GET is ever duplicated. ``tree`` is the file's
        index as of the call; it is looked up again after every yield."""
        missing = [i for i in indices if tree.get(i) is None]
        if not missing:
            return frozenset()
        self._c_misses.inc(len(missing))
        limit = min(self.fetch_parallel, self.capacity)
        for start in range(0, len(missing), limit):
            batch = missing[start:start + limit]
            if start:
                # Entries may have appeared (prefetch raced us) while the
                # earlier batch was in flight — and an eviction may have
                # dropped the file's ``_FileCache`` itself: look it up again.
                tree = self._file(ino).tree
                batch = [i for i in batch if tree.get(i) is None]
                if not batch:
                    continue
            yield from self._make_room(len(batch))
            if len(batch) == 1:
                self._c_serial_gets.inc()
                yield from self._fetch(ino, batch[0])
                continue
            self._c_fetch_batches.inc()
            self._c_batched_gets.inc(len(batch))
            self._g_fetch_batch.track(len(batch))
            fetches = [
                self.sim.process(self._fetch(ino, i), name=f"mget:{ino:x}:{i}")
                for i in batch
            ]
            yield self.sim.all_of(fetches)
        return frozenset(missing)

    def _get_entry(self, ino: int, index: int, fetch: bool = True) -> SimGen:
        """Return a ready entry, fetching on miss."""
        entry: Optional[CacheEntry] = self._file(ino).tree.get(index)
        if entry is not None:
            if entry.loading is not None:
                yield from self._wait(entry.loading)
            self._c_hits.inc()
            self._touch(ino, entry)
            return entry
        self._c_misses.inc()
        yield from self._make_room()
        if fetch:
            self._c_serial_gets.inc()
            entry = yield from self._fetch(ino, index)
            return entry
        # Caller will fully overwrite: a blank entry suffices. Nothing looked
        # up before ``_make_room`` holds across its yields: the victim may
        # have been this file's last entry (its ``_FileCache`` is gone from
        # ``_files``, and an entry installed there would be unreachable and
        # never flushed), or a fetch may have installed ``index`` meanwhile.
        fc = self._file(ino)
        entry = fc.tree.get(index)
        if entry is None:
            entry = CacheEntry(index)
            fc.tree.set(index, entry)
        elif entry.loading is not None:
            yield from self._wait(entry.loading)
        self._touch(ino, entry)
        return entry

    # -- public API -----------------------------------------------------------------

    def read(self, ino: int, offset: int, length: int,
             ra: Optional[ReadAheadState] = None) -> SimGen:
        """Read through the cache. ``length`` must already be EOF-clipped.

        Scatter-gather: asynchronous prefetches are issued for the
        read-ahead window, then every entry the request itself misses is
        fetched concurrently (``fetch_parallel`` GETs at a time) before the
        result is assembled — a cold multi-object read pays ~one
        object-store round trip, not one per entry.
        """
        if length <= 0:
            yield self.sim.timeout(0)
            return b""
        sp = _span(self.sim, "cache.read", "cache")
        try:
            # Valid until the first yield; looked up again after each one
            # (an eviction may drop the file's ``_FileCache`` meanwhile).
            tree = self._file(ino).tree
            if ra is not None:
                ra.on_read(offset, length, self.entry_size, self.max_readahead)
                # Kick prefetches for the window beyond this read. Slots are
                # reserved as prefetches are scheduled (``_reserved``), so a
                # burst of read-ahead cannot overshoot the cache capacity
                # before its processes have installed their entries.
                end_idx = (offset + length - 1) // self.entry_size
                ra_end = offset + length + ra.window
                ra_last_idx = (ra_end - 1) // self.entry_size
                budget = self.capacity - len(self._lru) - self._reserved
                for idx in range(end_idx + 1, ra_last_idx + 1):
                    if budget <= 0:
                        break
                    if tree.get(idx) is None:
                        budget -= 1
                        self._reserved += 1
                        self._c_prefetches.inc()
                        self.sim.process(self._prefetch_one(ino, idx),
                                         name=f"ra:{ino:x}:{idx}")
            pieces = self.prt.chunk_range(offset, length)
            fetched = yield from self._fetch_missing(
                ino, tree, [p[0] for p in pieces])
            if fetched:
                tree = self._file(ino).tree
            parts = []
            for idx, off, n in pieces:
                entry = tree.get(idx)
                if entry is None:
                    # Evicted between the scatter phase and assembly (only
                    # possible when the request is larger than the cache).
                    yield from self._make_room()
                    self._c_misses.inc()
                    self._c_serial_gets.inc()
                    entry = yield from self._fetch(ino, idx)
                    tree = self._file(ino).tree
                elif entry.loading is not None:
                    yield from self._wait(entry.loading)
                    if idx not in fetched:
                        self._c_hits.inc()
                elif idx not in fetched:
                    self._c_hits.inc()
                self._touch(ino, entry)
                if entry.tail:
                    entry.fold(self.entry_size)
                d = entry.data
                avail = entry.size - off
                take = n if avail >= n else max(avail, 0)
                # The one host copy of a read: a slice of immutable bytes,
                # or of the in-place buffer through a view.
                part = (d[off : off + take] if type(d) is bytes
                        else bytes(memoryview(d)[off : off + take]))
                parts.append(part if take == n else part + bytes(n - take))
            yield from self._copy_cost(length)
        finally:
            sp.close()
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _prefetch_one(self, ino: int, index: int) -> SimGen:
        try:
            fc = self._file(ino)
            if fc.tree.get(index) is not None:
                return
            if len(self._lru) >= self.capacity:
                return  # demand traffic claimed the slot; drop the prefetch
            yield from self._fetch(ino, index)
        except Exception:
            pass  # prefetch failures surface on the demand read
        finally:
            self._reserved -= 1

    def write(self, ino: int, offset: int, data: bytes,
              old_size: int) -> SimGen:
        """Write-back write. ``old_size`` is the file size before this write
        (to decide whether a partial entry needs read-modify-write)."""
        sp = _span(self.sim, "cache.write", "cache")
        try:
            if type(data) is not bytes:
                # Only immutable bytes may be borrowed: a caller's
                # bytearray or memoryview is copied once, at the boundary.
                data = bytes(data)
            pos = 0
            for idx, off, n in self.prt.chunk_range(offset, len(data)):
                piece = data[pos : pos + n]  # ``data`` itself when it fits
                pos += n
                entry_base = idx * self.entry_size
                covers_existing = off == 0 and entry_base + n >= min(
                    old_size, entry_base + self.entry_size
                )
                entry = yield from self._get_entry(
                    ino, idx,
                    fetch=not covers_existing and entry_base < old_size
                )
                d = entry.data
                end = off + n
                if type(d) is bytes and off == entry.size:
                    # Sequential append onto shared bytes: borrow the piece.
                    entry.tail.append(piece)
                else:
                    if type(d) is bytes:
                        # Overwrite or gap write: copy-on-write, in place
                        # from here on.
                        d = entry.unshare(self._room(entry.size, end))
                    elif len(d) < end:
                        d += bytes(self._room(len(d), end) - len(d))
                    d[off:end] = piece  # a gap before ``off`` is zeros
                if entry.size < end:
                    entry.size = end
                entry.dirty = True
            yield from self._copy_cost(len(data))
        finally:
            sp.close()

    def _collect_dirty(self, inos) -> SimGen:
        """Quiesce in-flight fetches for the given files and return their
        dirty ``(ino, entry)`` pairs, ready for a batched writeback."""
        pairs = []
        for ino in inos:
            fc = self._files.get(ino)
            if fc is None:
                continue
            for _idx, entry in list(fc.tree.items()):
                if entry.loading is not None:
                    yield from self._wait(entry.loading)
                if entry.dirty:
                    pairs.append((ino, entry))
        return pairs

    def flush(self, ino: int) -> SimGen:
        """Write every dirty entry of a file back to object storage,
        ``writeback_parallel`` PUTs at a time."""
        yield from self.flush_many([ino])

    def flush_many(self, inos) -> SimGen:
        """Flush several files' dirty entries through one flusher-pool run,
        so the writebacks of different files share batches instead of
        serializing file by file."""
        pairs = yield from self._collect_dirty(inos)
        yield from self._writeback_many(pairs)
        drain = getattr(self.prt.store, "tier_drain_all", None)
        if drain is not None:
            # Tiered backend: writebacks only staged the objects hot; the
            # fsync contract needs them drained to the cold (durable) tier.
            yield from drain(src=self.node)

    def flush_all(self) -> SimGen:
        yield from self.flush_many(list(self._files))

    def invalidate(self, ino: int, flush_dirty: bool = True,
                   deleted: bool = False) -> SimGen:
        """Drop a file's entries (read/write lease revocation path).

        Dirty entries go through the same batched writeback the eviction
        path uses — a lease revocation of a heavily written file must not
        serialize one PUT per entry. ``deleted`` marks a revocation that
        precedes an unlink purge: a packing cache then retires the file's
        extents instead of publishing them."""
        yield from self.invalidate_many([ino], flush_dirty=flush_dirty,
                                        deleted=deleted)

    def invalidate_many(self, inos, flush_dirty: bool = True,
                        deleted: bool = False) -> SimGen:
        """Batched invalidation across files (flush dirty, then drop)."""
        pairs = yield from self._collect_dirty(inos)
        if flush_dirty:
            yield from self._writeback_many(pairs)
        for ino in inos:
            fc = self._files.pop(ino, None)
            if fc is None:
                continue
            for idx, entry in list(fc.tree.items()):
                if entry.loading is not None:
                    yield from self._wait(entry.loading)
                if entry.dirty and flush_dirty:
                    # Re-dirtied (or fetched-then-written) while we flushed.
                    yield from self._writeback(ino, entry)
                self._lru.pop((ino, idx), None)

    def drop_all(self) -> SimGen:
        """Flush and drop everything (e.g. fio's cache drop between phases);
        writebacks fan out across files, not one file at a time."""
        yield from self.invalidate_many(list(self._files))

    def discard(self, inos) -> None:
        """Lose these files' cached bytes, dirty or not: their leader was
        fenced out before the metadata naming them became durable, so a
        later flush must write nothing for them."""
        for ino in inos:
            fc = self._files.pop(ino, None)
            if fc is not None:
                for idx, _entry in fc.tree.items():
                    self._lru.pop((ino, idx), None)

    def discard_all(self) -> None:
        """Crash: lose every cached byte, dirty or not."""
        self._files.clear()
        self._lru.clear()

    # -- introspection ------------------------------------------------------------

    def cached_entries(self, ino: int) -> int:
        fc = self._files.get(ino)
        return len(fc.tree) if fc else 0

    def has_dirty(self, ino: int) -> bool:
        fc = self._files.get(ino)
        if fc is None:
            return False
        return any(e.dirty for _, e in fc.tree.items())

    @property
    def total_entries(self) -> int:
        return len(self._lru)
