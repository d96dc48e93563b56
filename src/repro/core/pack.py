"""Packed small-file containers: log-structured object packing.

ArkFS's headline archiving workloads (Table 2: pftool/tarball ingest)
create thousands of files far smaller than the 2 MB data-object size, and
one PUT per small file bounds ingest throughput by per-object latency
instead of link bandwidth. The :class:`PackWriter` sits beneath the data
object cache: writeback of a chunk smaller than ``pack_threshold`` appends
it to an open log-structured *container* buffer instead of issuing its own
PUT. The container seals — one large PUT of up to ``pack_target_size``
bytes — when it fills or ages out, and the chunks' new homes are recorded
as ``(pack, offset, length)`` extents in each file's **extent index**
(object ``x<uuid>``), persisted through the per-directory journal when
this client leads the file's directory, or an idempotent read-modify-write
on the index object otherwise.

Seal protocol (crash safety — each step is durable before the next):

1. PUT the container object ``p<pack-id>`` (the durability milestone:
   a crash before this loses only unfsynced data, exactly like losing the
   dirty cache);
2. commit the extent-index deltas (journal commit or direct RMW) — a crash
   between 1 and 2 leaves a *dangling container*: unreferenced garbage
   that fsck reports as a post-crash warning and reclaim deletes;
3. delete the stale plain ``d`` objects the packed chunks replaced — a
   crash between 2 and 3 leaves both copies, and reads stay correct
   because the extent index *wins* over a plain object for the same chunk.

Deletes and overwrites punch holes logically: per-container live-byte
accounting feeds a background compactor that rewrites containers whose
live ratio drops below ``pack_compact_live_ratio`` (re-appending the live
extents into the open buffer, then purging the old container), so space
reclamation costs bounded, amortised I/O.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..objectstore.errors import NoSuchKey
from ..obs import Observability
from ..obs.trace import span as _span
from ..sim.engine import Interrupt, SimGen, Simulator
from ..sim.network import Node
from ..sim.resources import Mutex
from .journal import JournalManager, ops_del_extents, ops_set_extents
from .params import ArkFSParams
from .prt import PRT
from .types import PackExtent

__all__ = ["PackWriter"]


class PackWriter:
    """Per-client log-structured packer for sub-threshold chunks."""

    def __init__(self, sim: Simulator, prt: PRT, journal: JournalManager,
                 node: Optional[Node], params: ArkFSParams,
                 client_name: str, leads):
        """``leads(dir_ino) -> bool`` tells whether this client currently
        leads a directory (extent deltas then ride its journal; otherwise
        they are applied directly to the index object)."""
        self.sim = sim
        self.prt = prt
        self.journal = journal
        self.node = node
        self.params = params
        self.client_name = client_name
        self._leads = leads

        # -- open container buffer -----------------------------------------
        self._buf = bytearray()
        self._buf_dead = 0            # bytes superseded while still buffered
        self._open_since: Optional[float] = None
        # (ino, chunk index) -> (offset, length) inside the open buffer
        self._pending: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # chunks whose stale plain ``d`` object must die after the seal
        self._had_plain: Set[Tuple[int, int]] = set()
        # Container ids must stay unique across crash/restart of this
        # client (old containers may still hold live extents), so the
        # sequence is never reset.
        self._seq = 0

        # -- sealed-state mirrors ------------------------------------------
        # In-memory extent maps (lazily merged with the stored index).
        self._extents: Dict[int, Dict[int, PackExtent]] = {}
        self._index_loaded: Set[int] = set()
        self._dirs: Dict[int, int] = {}          # file ino -> parent dir ino
        # Containers sealed while their PUT is still in flight stay
        # readable from memory (the extent map already points at them).
        self._sealing_bufs: Dict[str, bytes] = {}
        # Live-byte accounting for containers this client sealed. Deaths
        # are reported from several overlapping sources (the holder's
        # revoke-for-delete, the leader's purge reading the stored index,
        # truncate, overwrite), so the ledger is keyed by (ino, chunk) and
        # a death is counted exactly once: a second report of the same
        # chunk is a no-op, never a double decrement (which could drive
        # live to zero and purge a container that still has live bytes).
        self._live_total: Dict[str, int] = {}    # pack id -> container size
        self._live_exts: Dict[str, Dict[Tuple[int, int], int]] = {}

        self._seal_lock = Mutex(sim, name=f"packseal:{client_name}")
        m = Observability.of(sim).metrics.scope(client_name + ".pack")
        self._c_chunks = m.counter("chunks_packed")
        self._c_bytes = m.counter("bytes_packed")
        self._c_seals = m.counter("packs_sealed")
        self._c_buffer_reads = m.counter("buffer_reads")
        self._c_packed_reads = m.counter("packed_reads")
        self._c_dead_bytes = m.counter("dead_bytes")
        self._c_compactions = m.counter("compactions")
        self._c_compacted_bytes = m.counter("compacted_bytes")
        self._c_reclaimed_bytes = m.counter("reclaimed_bytes")
        self._c_containers_purged = m.counter("containers_purged")
        self._g_open_buffer = m.gauge("open_buffer")
        self._ticker = sim.process(self._tick_loop(),
                                   name=f"{client_name}.packer")

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "chunks_packed": self._c_chunks.value,
            "bytes_packed": self._c_bytes.value,
            "packs_sealed": self._c_seals.value,
            "buffer_reads": self._c_buffer_reads.value,
            "packed_reads": self._c_packed_reads.value,
            "dead_bytes": self._c_dead_bytes.value,
            "compactions": self._c_compactions.value,
            "compacted_bytes": self._c_compacted_bytes.value,
            "reclaimed_bytes": self._c_reclaimed_bytes.value,
            "containers_purged": self._c_containers_purged.value,
            "max_open_buffer": self._g_open_buffer.max_value,
        }

    # -- bookkeeping hooks (plain functions: safe inside other coroutines) --

    def wants(self, nbytes: int) -> bool:
        """Should this writeback be packed instead of PUT individually?"""
        return 0 < nbytes < self.params.pack_threshold

    def note_file_dir(self, ino: int, dir_ino: int) -> None:
        """Remember a file's parent directory (journal routing for deltas)."""
        self._dirs[ino] = dir_ino

    def _note_dead(self, ino: int, index: int, pack_id: str,
                   keep: int = 0) -> None:
        """Mark a chunk's container bytes dead, exactly once. ``keep``
        leaves that many bytes live (truncate trimming a boundary chunk).
        Containers this client didn't seal are ignored — each client
        reclaims only its own."""
        live = self._live_exts.get(pack_id)
        if live is None:
            return
        key = (ino, index)
        ln = live.get(key)
        if ln is None or ln <= keep:
            return
        if keep > 0:
            live[key] = keep
        else:
            del live[key]
        self._c_dead_bytes.inc(ln - keep)

    def note_dead_extents(self, ino: int, exts: Dict[int, PackExtent]) -> None:
        """A whole file's extents just died (unlink purge read the stored
        index before deleting it)."""
        for idx, ext in exts.items():
            self._note_dead(ino, idx, ext.pack)

    def note_dead_extent(self, ino: int, index: int, ext: PackExtent,
                         keep: int = 0) -> None:
        """One extent died (or was trimmed to ``keep`` bytes): truncate."""
        self._note_dead(ino, index, ext.pack, keep=keep)

    def append(self, ino: int, index: int, data: bytes,
               had_plain: bool = False) -> bool:
        """Log a chunk into the open container buffer (pure memory; the
        caller's writeback turns into a memcpy). Returns True when the
        buffer reached ``pack_target_size`` and should be sealed."""
        key = (ino, index)
        old = self._pending.get(key)
        if old is not None:
            # Same chunk rewritten while still buffered: the old segment
            # becomes dead weight in the log.
            self._buf_dead += old[1]
            self._c_dead_bytes.inc(old[1])
        else:
            ext = self._extents.get(ino, {}).get(index)
            if ext is not None:
                # sealed copy superseded by this rewrite
                self._note_dead(ino, index, ext.pack)
        off = len(self._buf)
        self._buf += data
        self._pending[key] = (off, len(data))
        if had_plain:
            self._had_plain.add(key)
        if self._open_since is None:
            self._open_since = self.sim.now
        self._c_chunks.inc()
        self._c_bytes.inc(len(data))
        self._g_open_buffer.set(len(self._buf))
        return len(self._buf) >= self.params.pack_target_size

    def note_plain_write(self, ino: int, index: int) -> None:
        """A plain ``d`` object was just written for this chunk (it outgrew
        the threshold): any packed copy is now stale and its index entry
        must go, or the extent-wins read rule would serve old bytes."""
        key = (ino, index)
        seg = self._pending.pop(key, None)
        if seg is not None:
            self._buf_dead += seg[1]
            self._c_dead_bytes.inc(seg[1])
            self._had_plain.discard(key)
        ext = self._extents.get(ino, {}).pop(index, None)
        if ext is None and ino not in self._index_loaded:
            # A stored index entry may exist that we never loaded; the
            # delta below handles both cases (deleting a missing entry is
            # a no-op).
            ext_known = False
        else:
            ext_known = ext is not None
        if ext is not None:
            self._note_dead(ino, index, ext.pack)
        if not ext_known and ino in self._index_loaded:
            return  # index known, chunk was never packed: nothing to drop
        dir_ino = self._dirs.get(ino)
        if dir_ino is not None and self._leads(dir_ino):
            self.journal.record(dir_ino, ops_del_extents(ino, [index]))
        else:
            self.sim.process(
                self.prt.apply_extent_delta(
                    ino, del_list=[index], src=self.node),
                name=f"xdel:{ino:x}:{index}")

    def _drop_pending(self, inos) -> None:
        for key in [k for k in self._pending if k[0] in inos]:
            off, ln = self._pending.pop(key)
            self._buf_dead += ln
            self._c_dead_bytes.inc(ln)
            self._had_plain.discard(key)

    def drop_inos(self, inos) -> None:
        """The caller is discarding these files' cached data unflushed
        (lease lapse): buffered segments become dead weight, memory
        extent mirrors are forgotten. The files still exist — their
        *sealed* extents stay live."""
        self._drop_pending(inos)
        self.forget(inos)

    def kill_inos(self, inos) -> None:
        """These files are being deleted (unlink/overwrite revocation):
        buffered segments AND every sealed extent this client knows of
        die now. This is what lets the sealer's reclaim see deaths whose
        index deltas still sit in a journal (the stored index — all the
        unlinking leader can read — lags until checkpoint, and the
        unlink's clear op means those entries never surface there)."""
        self._drop_pending(inos)
        for ino in inos:
            for idx, ext in self._extents.get(ino, {}).items():
                self._note_dead(ino, idx, ext.pack)
        self.forget(inos)

    def forget(self, inos) -> None:
        """Drop in-memory extent state for files this client no longer
        caches (lease revocation hand-off: the stored index is now the
        only truth, and another client may rewrite it).

        The ino→directory hint survives: it only routes extent deltas to
        the right journal, and a file's parent doesn't change under a
        revocation. Dropping it would silently downgrade the next seal to
        a direct store apply, splitting the extents from the journaled
        dentry/inode ops they must commit with."""
        for ino in inos:
            self._extents.pop(ino, None)
            self._index_loaded.discard(ino)

    # -- seal ---------------------------------------------------------------

    def _snapshot(self):
        """Atomically (no yields) close the open buffer and mirror its
        chunks as sealed extents, so reads stay served during the seal."""
        self._seq += 1
        pack_id = f"{self.client_name}-{self._seq:08d}"
        data = bytes(self._buf)
        pending = self._pending
        had_plain = self._had_plain
        dead = self._buf_dead
        self._buf = bytearray()
        self._pending = {}
        self._had_plain = set()
        self._buf_dead = 0
        self._open_since = None
        self._g_open_buffer.set(0)
        self._sealing_bufs[pack_id] = data
        self._live_total[pack_id] = len(data)
        self._live_exts[pack_id] = {key: ln
                                    for key, (_off, ln) in pending.items()}
        set_maps: Dict[int, Dict[int, PackExtent]] = {}
        for (ino, idx), (off, ln) in pending.items():
            ext = PackExtent(pack_id, off, ln)
            self._extents.setdefault(ino, {})[idx] = ext
            set_maps.setdefault(ino, {})[idx] = ext
        return pack_id, data, set_maps, had_plain

    def seal(self) -> SimGen:
        """Seal the open container: one big PUT, then commit the extent
        deltas, then purge the stale plain objects. Serialized; concurrent
        callers coalesce (the second finds an empty buffer)."""
        req = yield from self._seal_lock.acquire()
        try:
            if not self._pending:
                return
            sp = _span(self.sim, "pack.seal", "pack")
            try:
                pack_id, data, set_maps, had_plain = self._snapshot()
                yield from self.prt.store.put(self.prt.key_pack(pack_id),
                                              data, src=self.node)
                del self._sealing_bufs[pack_id]
                yield from self._commit_deltas(set_maps)
                if had_plain:
                    yield from self.prt._purge(
                        sorted(self.prt.key_data(ino, idx)
                               for ino, idx in had_plain),
                        src=self.node)
                self._c_seals.inc()
                rec = self.sim._recorder
                if rec is not None:
                    rec.record("pack.seal", pack=pack_id, bytes=len(data))
            finally:
                sp.close()
        finally:
            self._seal_lock.release(req)

    def _commit_deltas(self, set_maps: Dict[int, Dict[int, PackExtent]]
                       ) -> SimGen:
        """Make extent-index updates durable: journal commit for files in
        directories this client leads, direct idempotent RMW otherwise."""
        flush_dirs = set()
        for ino in sorted(set_maps):
            dir_ino = self._dirs.get(ino)
            if dir_ino is not None and self._leads(dir_ino):
                self.journal.record(dir_ino,
                                    ops_set_extents(ino, set_maps[ino]))
                flush_dirs.add(dir_ino)
            else:
                yield from self.prt.apply_extent_delta(
                    ino, set_map=set_maps[ino], src=self.node)
        for dir_ino in sorted(flush_dirs):
            yield from self.journal.flush(dir_ino)

    def flush_inos(self, inos) -> SimGen:
        """fsync path: packed chunks of these files must be durable."""
        if any(key[0] in inos for key in self._pending):
            yield from self.seal()

    def publish(self, inos) -> SimGen:
        """Lease-revocation path: beyond durability, the stored extent
        index must reflect our deltas before another client reads it, so
        journaled deltas are checkpointed, not merely committed."""
        if any(key[0] in inos for key in self._pending):
            yield from self.seal()
        dirs = {self._dirs[ino] for ino in inos if ino in self._dirs}
        for dir_ino in sorted(dirs):
            if self._leads(dir_ino):
                yield from self.journal.flush(dir_ino, full=True)
        self.forget(inos)

    # -- read path ------------------------------------------------------------

    def fetch_chunk(self, ino: int, index: int) -> SimGen:
        """Resolve a chunk through the pack layer: open-buffer hit, else a
        ranged GET through the extent index. Returns ``None`` when the
        chunk isn't packed (caller falls through to the plain object)."""
        seg = self._pending.get((ino, index))
        if seg is not None:
            self._c_buffer_reads.inc()
            off, ln = seg
            return bytes(self._buf[off:off + ln])
        ext = self._extents.get(ino, {}).get(index)
        if ext is None and ino not in self._index_loaded:
            stored = yield from self.prt.read_extent_index(ino,
                                                           src=self.node)
            self._index_loaded.add(ino)
            mem = self._extents.setdefault(ino, {})
            for idx, st_ext in stored.items():
                mem.setdefault(idx, st_ext)   # memory (newer) wins
            seg = self._pending.get((ino, index))
            if seg is not None:               # appended while we loaded
                self._c_buffer_reads.inc()
                off, ln = seg
                return bytes(self._buf[off:off + ln])
            ext = mem.get(index)
        if ext is None:
            return None
        buf = self._sealing_bufs.get(ext.pack)
        if buf is not None:
            self._c_buffer_reads.inc()
            return bytes(buf[ext.offset:ext.offset + ext.length])
        try:
            data = yield from self.prt.read_extent(ext, src=self.node)
        except NoSuchKey:
            # Container compacted/purged under us: the stored index is
            # authoritative — reload once and retry.
            self._extents.get(ino, {}).pop(index, None)
            stored = yield from self.prt.read_extent_index(ino,
                                                           src=self.node)
            ext2 = stored.get(index)
            if ext2 is None:
                return None
            try:
                data = yield from self.prt.read_extent(ext2, src=self.node)
            except NoSuchKey:
                return None
            self._extents.setdefault(ino, {})[index] = ext2
        self._c_packed_reads.inc()
        return data

    # -- background maintenance ----------------------------------------------

    def _tick_loop(self) -> SimGen:
        interval = max(self.params.pack_seal_age / 2, 0.05)
        try:
            while True:
                yield self.sim.timeout(interval)
                yield from self.maintain()
        except Interrupt:
            return

    def maintain(self) -> SimGen:
        """One maintenance round: age-seal the open buffer, purge dead
        containers, compact low-live-ratio ones."""
        if (self._pending and self._open_since is not None
                and self.sim.now - self._open_since
                >= self.params.pack_seal_age):
            yield from self.seal()
        for pack_id in sorted(self._live_total):
            total = self._live_total.get(pack_id)
            if total is None or pack_id in self._sealing_bufs:
                continue
            live = sum(self._live_exts.get(pack_id, {}).values())
            if live <= 0:
                self._live_total.pop(pack_id, None)
                self._live_exts.pop(pack_id, None)
                yield from self.prt._purge([self.prt.key_pack(pack_id)],
                                           src=self.node)
                self._c_containers_purged.inc()
                self._c_reclaimed_bytes.inc(total)
            elif total and live / total < self.params.pack_compact_live_ratio:
                yield from self.compact(pack_id)
        tier = getattr(self.prt.store, "tier_maintain", None)
        if tier is not None:
            # Tiered backend rides this ticker for its lifecycle work:
            # drain a staged batch to cold and demote past the watermark.
            yield from tier(src=self.node)

    def compact(self, pack_id: str) -> SimGen:
        """Rewrite a mostly-dead container: re-append its still-live
        chunks into the open buffer, seal, then purge the old object.

        The live ledger — not the stored index — decides what moves: the
        stored index can lag the journal in both directions (a committed
        set not yet checkpointed must NOT be dropped; a committed del not
        yet checkpointed must NOT be resurrected). Each chunk's current
        extent is resolved memory-first, falling back to the stored index
        only for files whose mirror a lease hand-off already dropped."""
        total = self._live_total.pop(pack_id, None)
        live = self._live_exts.pop(pack_id, {})
        if total is None:
            return
        sp = _span(self.sim, "pack.compact", "pack")
        try:
            try:
                data = yield from self.prt.store.get(
                    self.prt.key_pack(pack_id), src=self.node)
            except NoSuchKey:
                return
            stored_cache: Dict[int, Dict[int, PackExtent]] = {}
            moved = 0
            for ino, idx in sorted(live):
                if (ino, idx) in self._pending:
                    continue   # freshly rewritten; old bytes are dead
                ext = self._extents.get(ino, {}).get(idx)
                if ext is None and ino not in self._index_loaded:
                    if ino not in stored_cache:
                        stored_cache[ino] = (
                            yield from self.prt.read_extent_index(
                                ino, src=self.node))
                    ext = stored_cache[ino].get(idx)
                if ext is None or ext.pack != pack_id:
                    continue
                self.append(ino, idx,
                            bytes(data[ext.offset:ext.offset + ext.length]))
                moved += ext.length
            if self._pending:
                yield from self.seal()
            yield from self.prt._purge([self.prt.key_pack(pack_id)],
                                       src=self.node)
            self._c_compactions.inc()
            rec = self.sim._recorder
            if rec is not None:
                rec.record("pack.compact", pack=pack_id, moved=moved)
            self._c_compacted_bytes.inc(moved)
            self._c_containers_purged.inc()
            self._c_reclaimed_bytes.inc(max(0, len(data) - moved))
        finally:
            sp.close()

    # -- failure handling -----------------------------------------------------

    def discard(self) -> None:
        """Client crash: every buffered byte and in-memory mirror is lost
        (sealed-but-uncommitted containers become post-crash garbage)."""
        self._buf = bytearray()
        self._buf_dead = 0
        self._open_since = None
        self._pending.clear()
        self._had_plain.clear()
        self._extents.clear()
        self._index_loaded.clear()
        self._dirs.clear()
        self._sealing_bufs.clear()
        self._live_total.clear()
        self._live_exts.clear()
        self._g_open_buffer.set(0)
        self._ticker.interrupt("crash")

    def restart(self, journal: JournalManager) -> None:
        """Client restart: bind the rebuilt journal manager and resume the
        maintenance ticker (the container id sequence keeps counting)."""
        self.journal = journal
        self._ticker = self.sim.process(
            self._tick_loop(), name=f"{self.client_name}.packer")
