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

1. PUT the container object ``p<pack-id>`` (the durability milestone,
   over a tiered store too, which writes containers through to cold: a
   crash before this loses only unfsynced data, like the dirty cache);
2. commit the extent-index deltas (journal commit or direct RMW) — a crash
   between 1 and 2 leaves a *dangling container*: unreferenced garbage
   that fsck reports as a post-crash warning and reclaim deletes;
3. delete the stale plain ``d`` objects the packed chunks replaced — a
   crash between 2 and 3 leaves both copies, and reads stay correct
   because the extent index *wins* over a plain object for the same chunk.

Deletes and overwrites punch holes logically: the index write that drops
an extent tells the container's sealer, whose live-byte accounting feeds
a background compactor that rewrites containers whose live ratio drops
below ``pack_compact_live_ratio`` (re-appending the live extents into the
open buffer, then purging the old container), so space reclamation costs
bounded, amortised I/O.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Optional, Set, Tuple

from ..objectstore.errors import NoSuchKey
from ..obs import Observability
from ..sim.engine import Interrupt, SimGen, Simulator
from ..sim.network import Node, NodeDown
from ..sim.resources import Mutex
from .cache import CacheEntry, DataObjectCache
from .journal import (JournalManager, ops_clear_extents, ops_del_extents,
                      ops_set_extents)
from .params import ArkFSParams
from .prt import PRT
from .types import PackExtent

__all__ = ["PackClient", "PackWriter", "PackedCache", "PackedPRT",
           "pack_layer"]


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
        self.node = node
        self.params = params
        self.client_name = client_name
        self._leads = leads
        # Container ids must stay unique across crash/restart of this
        # client (old containers may still hold live extents), so the
        # sequence is never reset.
        self._seq = 0
        self._lose_memory()
        self._seal_lock = Mutex(sim, name=f"packseal:{client_name}")
        m = Observability.of(sim).metrics.scope(client_name + ".pack")
        self._c = {name: m.counter(name) for name in (
            "chunks_packed", "bytes_packed", "packs_sealed", "buffer_reads",
            "packed_reads", "dead_bytes", "compactions", "compacted_bytes",
            "reclaimed_bytes", "containers_purged")}
        self._g_open_buffer = m.gauge("open_buffer")
        self.start(journal)

    def _lose_memory(self) -> None:
        """Nothing buffered or mirrored: a new writer, or a crashed one."""
        # -- open container buffer -----------------------------------------
        self._buf = bytearray()
        self._open_since: Optional[float] = None
        # (ino, chunk index) -> (offset, length) inside the open buffer
        self._pending: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # chunks whose stale plain ``d`` object must die after the seal
        self._had_plain: Set[Tuple[int, int]] = set()

        # -- sealed-state mirrors ------------------------------------------
        # In-memory extent maps (lazily merged with the stored index).
        self._extents: Dict[int, Dict[int, PackExtent]] = {}
        self._index_loaded: Set[int] = set()
        self._dirs: Dict[int, int] = {}          # file ino -> parent dir ino
        # Containers sealed while their PUT is still in flight stay
        # readable from memory (the extent map already points at them).
        self._sealing_bufs: Dict[str, bytes] = {}
        # Live-byte accounting for containers this client sealed, fed by
        # ``arkfs.pack_dead``. Keyed by (ino, chunk), so a death counts
        # exactly once: a replayed index write's second report is a no-op,
        # never a double decrement that could purge a live container.
        self._live_total: Dict[str, int] = {}    # pack id -> container size
        self._live_exts: Dict[str, Dict[Tuple[int, int], int]] = {}

    @property
    def stats(self) -> Dict[str, int]:
        return {**{name: c.value for name, c in self._c.items()},
                "max_open_buffer": self._g_open_buffer.max_value}

    # -- bookkeeping hooks (plain functions: safe inside other coroutines) --

    def note_file_dir(self, ino: int, dir_ino: int) -> None:
        """Remember a file's parent directory (journal routing for deltas)."""
        self._dirs[ino] = dir_ino

    def note_dead(self, ino: int, index: int, pack_id: str,
                  keep: int = 0) -> None:
        """Mark a chunk's container bytes dead (an index write or an unlink
        purge removed it), exactly once. ``keep`` leaves that many bytes
        live (truncate trimming a boundary chunk). Containers this ledger
        lacks (a previous life's, or reclaimed) are ignored."""
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
        self._c["dead_bytes"].inc(ln - keep)

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
            self._c["dead_bytes"].inc(old[1])
        off = len(self._buf)
        self._buf += data
        self._pending[key] = (off, len(data))
        if had_plain:
            self._had_plain.add(key)
        if self._open_since is None:
            self._open_since = self.sim.now
        self._c["chunks_packed"].inc()
        self._c["bytes_packed"].inc(len(data))
        self._g_open_buffer.set(len(self._buf))
        return len(self._buf) >= self.params.pack_target_size

    def note_plain_write(self, ino: int, index: int) -> None:
        """A plain ``d`` object was just written for this chunk (it outgrew
        the threshold): any packed copy is now stale and its index entry
        must go, or the extent-wins read rule would serve old bytes."""
        key = (ino, index)
        seg = self._pending.pop(key, None)
        if seg is not None:
            self._c["dead_bytes"].inc(seg[1])
            self._had_plain.discard(key)
        if (self._extents.get(ino, {}).pop(index, None) is None
                and ino in self._index_loaded):
            return  # index known, chunk was never packed: nothing to drop
        # Else the stored index may hold an entry we never loaded: the
        # delta below handles both cases (deleting a missing one is a no-op).
        dir_ino = self._dirs.get(ino)
        if dir_ino is not None and self._leads(dir_ino):
            self.journal.record(dir_ino, ops_del_extents(ino, [index]))
        else:
            self.sim.process(
                self.prt.apply_extent_delta(
                    ino, del_list=[index], src=self.node),
                name=f"xdel:{ino:x}:{index}")

    def drop_inos(self, inos) -> None:
        """The caller is discarding these files' cached data unflushed:
        buffered segments become dead weight, memory extent mirrors are
        forgotten. Their *sealed* extents die only by an index write or
        the unlink purge, which tell the sealer."""
        for key in [k for k in self._pending if k[0] in inos]:
            _off, ln = self._pending.pop(key)
            self._c["dead_bytes"].inc(ln)
            self._had_plain.discard(key)
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
        pack_id = f"{self.client_name}-{self._seq:08d}"   # names the sealer
        data = bytes(self._buf)
        pending = self._pending
        had_plain = self._had_plain
        self._buf = bytearray()
        self._pending = {}
        self._had_plain = set()
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
            self._c["packs_sealed"].inc()
            rec = self.sim._recorder
            if rec is not None:
                rec.record("pack.seal", pack=pack_id, bytes=len(data))
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
        yield from self.flush_inos(inos)
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
        key = (ino, index)
        if (key not in self._pending and ino not in self._index_loaded
                and index not in self._extents.get(ino, {})):
            stored = yield from self.prt.read_extent_index(ino,
                                                           src=self.node)
            self._index_loaded.add(ino)
            mem = self._extents.setdefault(ino, {})
            for idx, st_ext in stored.items():
                mem.setdefault(idx, st_ext)   # memory (newer) wins
        seg = self._pending.get(key)          # (or appended while we loaded)
        if seg is not None:
            self._c["buffer_reads"].inc()
            off, ln = seg
            return bytes(self._buf[off:off + ln])
        ext = self._extents.get(ino, {}).get(index)
        if ext is None:
            return None
        buf = self._sealing_bufs.get(ext.pack)
        if buf is not None:
            self._c["buffer_reads"].inc()
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
        self._c["packed_reads"].inc()
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
                self._c["containers_purged"].inc()
                self._c["reclaimed_bytes"].inc(total)
            elif total and live / total < self.params.pack_compact_live_ratio:
                yield from self.compact(pack_id)

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
        self._c["compactions"].inc()
        rec = self.sim._recorder
        if rec is not None:
            rec.record("pack.compact", pack=pack_id, moved=moved)
        self._c["compacted_bytes"].inc(moved)
        self._c["containers_purged"].inc()
        self._c["reclaimed_bytes"].inc(max(0, len(data) - moved))

    # -- failure handling -----------------------------------------------------

    def discard(self) -> None:
        """Client crash: every buffered byte and in-memory mirror is lost
        (sealed-but-uncommitted containers become post-crash garbage)."""
        self._lose_memory()
        self._g_open_buffer.set(0)
        self._ticker.interrupt("crash")

    def start(self, journal: JournalManager) -> None:
        """Bind the client's journal manager and start the maintenance
        ticker: at construction, and again after a crash (the container id
        sequence keeps counting)."""
        self.journal = journal
        self._ticker = self.sim.process(
            self._tick_loop(), name=f"{self.client_name}.packer")


class PackedCache(DataObjectCache):
    """A data object cache whose sub-threshold writebacks go to a
    :class:`PackWriter`, which a fetch also asks first."""

    def __init__(self, *args: Any, pack: PackWriter, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.pack = pack
        self._read_chunk = self._fetch_packed

    def _fetch_packed(self, ino: int, index: int, src=None) -> SimGen:
        """Unpacked chunks come from their plain object (the entry
        ``_fetch`` fills is then backed)."""
        entry = self._files[ino].tree.get(index)
        data = yield from self.pack.fetch_chunk(ino, index)
        if data is None:
            data = yield from self.prt.read_object(ino, index, src=src)
            entry.backed = len(data) > 0
        return data

    def _writeback(self, ino: int, entry: CacheEntry) -> SimGen:
        if not entry.dirty:
            return
        if not 0 < entry.size < self.pack.params.pack_threshold:
            yield from super()._writeback(ino, entry)
            # The chunk outgrew the threshold: any packed copy is stale now.
            entry.backed = True
            self.pack.note_plain_write(ino, entry.index)
            return
        # A memcpy into the open container instead of a PUT; durability
        # comes from the seal, which flush/fsync paths force.
        entry.dirty = False
        snapshot = entry.freeze()
        full = self.pack.append(ino, entry.index, snapshot,
                                had_plain=entry.backed)
        entry.backed = False
        yield from self._copy_cost(len(snapshot))
        if full:
            yield from self.pack.seal()

    def flush_many(self, inos) -> SimGen:
        """fsync: the base flush, then seal what its writebacks appended."""
        yield from super().flush_many(inos)
        yield from self.pack.flush_inos(inos)

    def invalidate_many(self, inos, flush_dirty: bool = True,
                        deleted: bool = False) -> SimGen:
        yield from super().invalidate_many(inos, flush_dirty)
        if flush_dirty and not deleted:
            # Revocation hand-off: seal and push the extent-index deltas
            # out so the next lease holder reads our bytes.
            yield from self.pack.publish(inos)
        else:
            self.pack.drop_inos(inos)

    def discard(self, inos) -> None:
        super().discard(inos)
        self.pack.drop_inos(inos)

    def discard_all(self) -> None:
        super().discard_all()
        self.pack.discard()


def _tell_sealer(src: Node, sealer: str, deaths) -> SimGen:
    """One ``arkfs.pack_dead`` notice, dropped if the sealer is down: its
    ledger died with its memory (a previous client life's leak)."""
    try:
        yield from src.call(src.net.nodes[sealer], "arkfs.pack_dead", deaths)
    except NodeDown:
        pass


class PackedPRT(PRT):
    """The PRT of a packing cluster: the DIRECT data path, truncate and
    deletion see each file's extent index, and an extent dies only by its
    index write (:meth:`apply_extent_delta`) or its file's purge
    (:meth:`delete_data`), which tell the container's sealer."""

    def read_data(self, ino: int, offset: int, length: int, file_size: int,
                  src: Optional[Node] = None) -> SimGen:
        extents = None
        if offset < file_size:
            extents = yield from self.read_extent_index(ino, src=src)
        return (yield from super().read_data(ino, offset, length, file_size,
                                             src, extents))

    def write_data(self, ino: int, offset: int, data: bytes,
                   src: Optional[Node] = None) -> SimGen:
        """A rewritten packed chunk becomes a plain object, then loses its
        index entry (the index must never shadow a newer plain object)."""
        extents = yield from self.read_extent_index(ino, src=src)
        yield from super().write_data(ino, offset, data, src, extents)
        unpacked = [idx for idx, _o, _n in self.chunk_range(offset, len(data))
                    if idx in extents]
        if unpacked:
            yield from self.apply_extent_delta(ino, del_list=unpacked,
                                               src=src)

    def truncate_data(self, ino: int, old_size: int, new_size: int,
                      src: Optional[Node] = None) -> SimGen:
        """Extents past the new EOF go and the boundary one shortens, then
        the plain objects do."""
        cur = yield from self.read_extent_index(ino, src=src)
        bidx, kept = divmod(new_size, self.data_object_size)
        ext = cur.get(bidx)
        trim = ({bidx: ext._replace(length=kept)}
                if kept and ext and ext.length > kept else {})
        dead = [idx for idx in cur if idx >= bidx + (kept > 0)]
        if dead or trim:
            yield from self.apply_extent_delta(ino, trim, dead, src=src)
        yield from super().truncate_data(ino, old_size, new_size, src)

    def delete_data(self, ino: int, src: Optional[Node] = None) -> SimGen:
        """The stored index, read before the purge, names what dies."""
        old = yield from self.read_extent_index(ino, src=src)
        n = yield from super().delete_data(
            ino, src, also=[self.key_extent_index(ino)])
        self._report_deaths(ino, old, {}, src)
        return n

    def apply_extent_delta(self, ino: int,
                           set_map: Optional[Dict[int, PackExtent]] = None,
                           del_list=(), clear: bool = False,
                           src: Optional[Node] = None) -> SimGen:
        """Idempotent read-modify-write on a file's extent index.

        ``clear`` drops the whole index first, then ``del_list`` entries
        are removed and ``set_map`` entries installed; the index object is
        deleted when it ends empty. Replaying the same delta is a no-op,
        which is what lets these ride the journal's redo log: a replay
        finds nothing left to kill, so it reports no death twice."""
        key = self.key_extent_index(ino)
        old = yield from self.read_extent_index(ino, src=src)
        cur = {} if clear else dict(old)
        for idx in del_list:
            cur.pop(int(idx), None)
        for idx, ext in (set_map or {}).items():
            cur[int(idx)] = PackExtent(*ext)
        if cur:
            yield from self.store.put(key, self.dump_extent_index(cur),
                                      src=src)
        else:
            try:
                yield from self.store.delete(key, src=src)
            except NoSuchKey:
                pass
        self._report_deaths(ino, old, cur, src)
        return cur

    def _report_deaths(self, ino: int, old: Dict[int, PackExtent],
                       new: Dict[int, PackExtent],
                       src: Optional[Node]) -> None:
        """Tell each sealer which of its extents the index write from
        ``old`` to ``new`` removed or shortened (keeping the new length),
        in one notice per sealer that nothing waits on."""
        if src is None:
            return   # a bare PRT, with no client node, tells nobody
        deaths: Dict[str, list] = {}
        for idx, ext in old.items():
            now = new.get(idx)
            if now != ext:
                keep = now.length if now and now[:2] == ext[:2] else 0
                sealer = ext.pack.rpartition("-")[0]   # <client>-<seq>
                deaths.setdefault(sealer, []).append(
                    (ino, idx, ext.pack, keep))
        for sealer in sorted(deaths):
            self.sim.process(_tell_sealer(src, sealer, deaths[sealer]),
                             name="pack_dead")


class PackClient:
    """The pack layer ``build_arkfs`` composes (:func:`pack_layer`) over
    either client class: it owns the writer, tells it each opened file's
    directory, and hands it the deaths of the containers it sealed."""

    # Without this a committed-but-uncheckpointed extent set in the same
    # journal would recreate the index after the unlink's purge.
    _file_death_ops = (ops_clear_extents,)

    def _new_cache(self, *args: Any, **kwargs: Any) -> PackedCache:
        self.pack = PackWriter(self.sim, self.prt, self.journal, self.node,
                               self.params, self.name, self._leads_dir)
        self.node.register("arkfs.pack_dead", self._h_pack_dead)
        return PackedCache(*args, pack=self.pack, **kwargs)

    def _h_pack_dead(self, deaths) -> SimGen:
        """An index write or a purge on some node removed extents of
        containers we sealed."""
        for ino, idx, pack_id, keep in deaths:
            self.pack.note_dead(ino, idx, pack_id, keep)
        yield from ()

    def _restart_layers(self) -> None:
        super()._restart_layers()
        self.pack.start(self.journal)

    def open(self, creds, path: str, flags, mode: int = 0o666) -> SimGen:
        handle = yield from super().open(creds, path, flags, mode)
        self.pack.note_file_dir(handle.ino, handle.impl.parent_ino)
        return handle


@lru_cache(maxsize=None)
def pack_layer(base: type) -> type:
    """``base`` with the :class:`PackClient` layer on top (one per base)."""
    return type("Pack" + base.__name__, (PackClient, base), {})
