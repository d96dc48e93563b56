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
      a fetch got from the store, what a tail folded into, a tail that
      filled its entry, or the snapshot a writeback took. The same object
      may be held by the store, the caller of ``read`` and the cache at
      once; nobody can change it.
    * **in place** — ``data`` is a private ``bytearray`` capacity buffer
      that grows geometrically and takes writes as equal-length slice
      assignments. Bytes past ``size`` are zero (``size`` never shrinks,
      so a gap write finds its gap zeroed) and never observable: reads
      and snapshots clip at ``size``.

    Appends at ``size`` onto the first two states extend the tail; any
    other write copies the entry into the in-place state (copy-on-write);
    an append that fills the entry freezes it (``freeze``: one join, the
    immutable state); the first read of a tail joins it into one ``bytes``,
    and a tail that grew on an earlier join goes in place instead, so
    alternating appends and reads stay linear; a writeback
    (``DataObjectCache._writeback``) freezes the entry and ships the very
    object it keeps (see DESIGN "One copy per byte")."""

    __slots__ = ("index", "data", "tail", "size", "dirty", "loading")

    def __init__(self, index: int):
        self.index = index
        self.data = b""
        self.tail: list = []
        self.size = 0
        self.dirty = False
        self.loading: Optional[Event] = None  # set while a fetch is in flight

    @property
    def ready(self) -> bool:
        return self.loading is None

    def freeze(self) -> bytes:
        """The valid bytes as one immutable ``bytes``, adopted as ``data``
        with the tail cleared (the immutable state), in at most one copy:
        a base plus a tail is joined once, a single piece or an immutable
        entry is kept as is, an in-place buffer has its valid prefix
        copied once."""
        d = self.data
        if self.tail:
            d = b"".join([d, *self.tail] if d else self.tail)
            self.tail.clear()
        elif type(d) is not bytes:
            d = bytes(memoryview(d)[:self.size])
        self.data = d
        return d

    def fold(self, entry_size: int) -> None:
        """Make a tail contiguous for a reader. With no base yet this is
        the one join of a sequentially written entry; a tail on top of a
        base has been read (or stored) before and will be again, so it
        moves in place with room to double instead of re-joining the
        whole entry on every append/read round."""
        if self.data:
            self.unshare(min(2 * self.size, entry_size))
        else:
            self.freeze()

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
        # Fetches in flight: in their file's tree, not in ``_lru``, so they
        # hold no slot; only read-ahead admission counts them.
        self._fetching = 0
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
        tr = self.sim._active_proc.tracer
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
        """Make a resident entry the most recently used. One evicted while
        its user waited stays evicted: a fetch that lands makes room at
        once, before the processes waiting for it resume."""
        key = (ino, entry.index)
        if key in self._lru:
            self._lru.move_to_end(key)

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
        """Evict LRU entries until ``need`` more fit beside the resident
        ones (``need`` 0: down to capacity, as a landed fetch asks). A
        clean head is evicted at once. A dirty one is written back with
        the next dirty entries, ``writeback_parallel`` in all, and judged
        again: it stays on the LRU through its PUT, so a write meanwhile
        leaves it dirty, to be written again, never deleted."""
        need = min(need, self.capacity)
        while len(self._lru) + need > self.capacity:
            (ino, idx), entry = next(iter(self._lru.items()))
            if entry.dirty:
                run = []
                for (i, _), e in self._lru.items():
                    if e.dirty:
                        run.append((i, e))
                        if len(run) == self.writeback_parallel:
                            break
                yield from self._writeback_pool(run)
                continue
            del self._lru[ino, idx]
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
        # The entry keeps its snapshot as its data, so the store shares it
        # with the cache, and a write landing mid-flush appends to it or
        # copies it: it cannot reach the PUT.
        snapshot = entry.freeze()
        self._g_inflight_puts.add(1)
        try:
            yield from self.prt.write_object(ino, entry.index, snapshot,
                                             src=self.node)
        except Exception:
            entry.dirty = True
            raise
        finally:
            self._g_inflight_puts.add(-1)
        self._c_flushes.inc()
        rec = self.sim._recorder
        if rec is not None:
            rec.record("cache.writeback", ino=ino, idx=entry.index,
                       bytes=entry.size)

    def _writeback_pool(self, pairs) -> SimGen:
        """Write dirty ``(ino, entry)`` pairs back through the flusher
        pool: ``min(len(pairs), writeback_parallel)`` flushers, each
        taking the next pair when its own PUT lands, so a large object or
        a busy OSD holds up only its own flusher. After a PUT fails no new
        one starts; the failure is raised once those in flight settle,
        and the pairs never started stay dirty."""
        if len(pairs) <= 1:
            if pairs:
                self._c_serial_puts.inc()
                yield from self._writeback(*pairs[0])
            return
        width = min(len(pairs), self.writeback_parallel)
        self._c_wb_batches.inc()
        self._c_batched_puts.inc(len(pairs))
        self._g_wb_batch.track(width)
        queue = iter(pairs)
        failed: list = []
        yield self.sim.all_of([
            self.sim.process(self._flusher(queue, failed), name="flusher")
            for _ in range(width)])
        if failed:
            # Taken off the list: the traceback holds this frame, which
            # holds ``failed``.
            raise failed.pop(0)

    def _flusher(self, queue, failed: list) -> SimGen:
        """One flusher of a pool run: PUT after PUT until the queue is
        empty or a PUT of the run has failed."""
        for ino, entry in queue:
            if failed:
                return
            try:
                yield from self._writeback(ino, entry)
            except Exception as exc:
                # Kept without this frame at the head of its traceback:
                # the frame holds ``failed``, which would close a cycle.
                failed.append(exc.with_traceback(exc.__traceback__.tb_next))
                return

    def _fetch(self, ino: int, index: int) -> SimGen:
        """Install a loading entry and fill it from storage.

        Idempotent under races: if another fetch (demand or read-ahead)
        installed the entry between our admission check and now, join its
        in-flight ``loading`` event instead of issuing a second GET.
        The entry holds no cache slot until its bytes land; then it
        takes one and the cache evicts back down to capacity."""
        fc = self._file(ino)
        existing = fc.tree.get(index)
        if existing is not None:
            if existing.loading is not None:
                yield from self._wait(existing.loading)
            return existing
        entry = CacheEntry(index)
        entry.loading = self.sim.event()
        fc.tree.set(index, entry)
        self._fetching += 1
        self._g_inflight_gets.add(1)
        try:
            data = yield from self.prt.read_object(ino, index, src=self.node)
        except Exception as exc:
            fc.tree.delete(index)
            entry.loading.fail(exc)
            raise
        finally:
            self._fetching -= 1
            self._g_inflight_gets.add(-1)
        # Keep the store's own immutable object (``ObjectStore.get`` may
        # return what it holds); anything else is copied once, here.
        entry.data = data if type(data) is bytes else bytes(data)
        entry.size = len(data)
        ev, entry.loading = entry.loading, None
        if self._files.get(ino) is fc:   # not invalidated or discarded
            self._lru[(ino, index)] = entry
        ev.succeed(entry)
        yield from self._make_room(0)
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
        """Return a ready entry, resident as it is returned, fetching on
        miss. An entry waited for may be evicted before this process
        resumes; a write into it would reach no flush, so the lookup
        starts over."""
        entry: Optional[CacheEntry] = self._file(ino).tree.get(index)
        if entry is not None:
            self._c_hits.inc()
            if entry.loading is None:
                self._touch(ino, entry)
                return entry
            yield from self._wait(entry.loading)
        else:
            self._c_misses.inc()
            yield from self._make_room()
            if fetch:
                self._c_serial_gets.inc()
                entry = yield from self._fetch(ino, index)
            else:
                # Caller will fully overwrite: a blank entry suffices.
                # Nothing looked up before ``_make_room`` holds across its
                # yields: the victim may have been this file's last entry
                # (its ``_FileCache`` is gone from ``_files``, and an entry
                # installed there would be unreachable and never flushed),
                # or a fetch may have installed ``index`` meanwhile.
                fc = self._file(ino)
                entry = fc.tree.get(index)
                if entry is None:
                    entry = CacheEntry(index)
                    fc.tree.set(index, entry)
                    self._lru[(ino, index)] = entry
                    return entry
                if entry.loading is not None:
                    yield from self._wait(entry.loading)
        if self._lru.get((ino, index)) is not entry:
            return (yield from self._get_entry(ino, index, fetch))
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
        # Valid until the first yield; looked up again after each one
        # (an eviction may drop the file's ``_FileCache`` meanwhile).
        tree = self._file(ino).tree
        if ra is not None:
            ra.on_read(offset, length, self.entry_size, self.max_readahead)
            # Kick prefetches for the window beyond this read. Admission
            # counts resident entries, fetches in flight and slots reserved
            # as prefetches are scheduled (``_reserved``), so a burst of
            # read-ahead is bounded before its processes start; the cache
            # itself stays within capacity as fetches land.
            end_idx = (offset + length - 1) // self.entry_size
            ra_end = offset + length + ra.window
            ra_last_idx = (ra_end - 1) // self.entry_size
            budget = (self.capacity - len(self._lru) - self._fetching
                      - self._reserved)
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
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _prefetch_one(self, ino: int, index: int) -> SimGen:
        try:
            fc = self._file(ino)
            if fc.tree.get(index) is not None:
                return
            if len(self._lru) + self._fetching >= self.capacity:
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
                if end == self.entry_size:
                    # The entry is full: join it now, once, so its pieces
                    # free while the next ones can reuse their blocks
                    # (not at fsync, when every join needs fresh heap).
                    entry.freeze()
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
        """Write every dirty entry of a file back to object storage
        through the flusher pool."""
        return self.flush_many([ino])

    def flush_many(self, inos) -> SimGen:
        """Flush several files' dirty entries through one flusher-pool run,
        so the writebacks of different files share the pool instead of
        serializing file by file."""
        pairs = yield from self._collect_dirty(inos)
        yield from self._writeback_pool(pairs)
        drain = getattr(self.prt.store, "tier_drain_all", None)
        if drain is not None:
            # Tiered backend: writebacks only staged the objects hot; the
            # fsync contract needs them drained to the cold (durable) tier.
            yield from drain(src=self.node)

    def flush_all(self) -> SimGen:
        yield from self.flush_many(list(self._files))

    def invalidate(self, ino: int, flush_dirty: bool = True) -> SimGen:
        """Drop a file's entries (read/write lease revocation path).

        Dirty entries go through the same batched writeback the eviction
        path uses — a lease revocation of a heavily written file must not
        serialize one PUT per entry."""
        return self.invalidate_many([ino], flush_dirty=flush_dirty)

    def invalidate_many(self, inos, flush_dirty: bool = True) -> SimGen:
        """Batched invalidation across files (flush dirty, then drop)."""
        pairs = yield from self._collect_dirty(inos)
        if flush_dirty:
            yield from self._writeback_pool(pairs)
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
                if self._lru.get((ino, idx)) is entry:
                    # (Not an entry a new ``_FileCache`` made meanwhile.)
                    del self._lru[(ino, idx)]

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
