"""PRT — the POSIX-REST Translator (Section III-F).

Defines how file-system state maps onto flat object keys and translates
block-granularity POSIX I/O into whole/ranged object REST operations:

* ``i<uuid>``            — inode (JSON)
* ``e<uuid>/<name>``     — one directory entry of directory ``<uuid>``
* ``j<uuid>/<seq>``      — one committed journal transaction of the directory
* ``d<uuid>/<index>``    — one data object of a file (fixed-size chunks)
* ``t<txid>``            — a two-phase-commit decision record
* ``s<uuid>``            — a sharded directory's hash-range shard map

File data is split into ``data_object_size`` chunks ("The PRT module divides
the file data into multiple objects if the file size exceeds the maximum
object size defined by the object storage"). Missing chunks read as zeros
(sparse files).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..objectstore.base import ObjectStore
from ..objectstore.errors import NoSuchKey
from ..obs import Observability
from ..sim.engine import SimGen
from ..sim.network import Node
from .types import Dentry, Inode, ino_hex

__all__ = ["PRT"]


class PRT:
    """Key schema + chunked data path over one object-storage backend."""

    def __init__(self, store: ObjectStore, data_object_size: int):
        if data_object_size <= 0:
            raise ValueError("data_object_size must be positive")
        self.store = store
        self.sim = store.sim
        self.data_object_size = data_object_size
        # Purge fan-out observability (unlink and truncate both funnel
        # through ``_purge``).
        m = Observability.of(self.sim).metrics.scope("prt.purge")
        self._c_batched_deletes = m.counter("batched_deletes")
        self._c_serial_deletes = m.counter("serial_deletes")
        self._c_purge_batches = m.counter("batches")
        self._g_purge_batch = m.gauge("batch")

    # -- key construction ------------------------------------------------------

    @staticmethod
    def key_inode(ino: int) -> str:
        return "i" + ino_hex(ino)

    @staticmethod
    def key_dentry(dir_ino: int, name: str) -> str:
        return f"e{ino_hex(dir_ino)}/{name}"

    @staticmethod
    def key_dentry_prefix(dir_ino: int) -> str:
        return f"e{ino_hex(dir_ino)}/"

    @staticmethod
    def key_journal(dir_ino: int, seq: int) -> str:
        return f"j{ino_hex(dir_ino)}/{seq:012d}"

    @staticmethod
    def key_journal_prefix(dir_ino: int) -> str:
        return f"j{ino_hex(dir_ino)}/"

    @staticmethod
    def key_data(ino: int, index: int) -> str:
        return f"d{ino_hex(ino)}/{index:010d}"

    @staticmethod
    def key_data_prefix(ino: int) -> str:
        return f"d{ino_hex(ino)}/"

    @staticmethod
    def key_decision(txid: str) -> str:
        return f"t{txid}"

    @staticmethod
    def key_shard_map(dir_ino: int) -> str:
        return "s" + ino_hex(dir_ino)

    # -- inode / dentry objects ---------------------------------------------------

    def get_inode(self, ino: int, src: Optional[Node] = None) -> SimGen:
        raw = yield from self.store.get(self.key_inode(ino), src=src)
        return Inode.from_bytes(raw)

    def put_inode(self, inode: Inode, src: Optional[Node] = None) -> SimGen:
        """The store's PUT generator, with no frame of its own."""
        return self.store.put(self.key_inode(inode.ino), inode.to_bytes(),
                              src=src)

    def delete_inode(self, ino: int, src: Optional[Node] = None) -> SimGen:
        try:
            yield from self.store.delete(self.key_inode(ino), src=src)
        except NoSuchKey:
            pass  # idempotent (journal replay may re-delete)

    def inode_exists(self, ino: int, src: Optional[Node] = None) -> SimGen:
        return (yield from self.store.exists(self.key_inode(ino), src=src))

    def get_dentry(self, dir_ino: int, name: str,
                   src: Optional[Node] = None) -> SimGen:
        raw = yield from self.store.get(self.key_dentry(dir_ino, name), src=src)
        return Dentry.from_bytes(raw)

    def put_dentry(self, dir_ino: int, dentry: Dentry,
                   src: Optional[Node] = None) -> SimGen:
        """The store's PUT generator, with no frame of its own."""
        return self.store.put(self.key_dentry(dir_ino, dentry.name),
                              dentry.to_bytes(), src=src)

    def delete_dentry(self, dir_ino: int, name: str,
                      src: Optional[Node] = None) -> SimGen:
        try:
            yield from self.store.delete(self.key_dentry(dir_ino, name), src=src)
        except NoSuchKey:
            pass

    def list_dentries(self, dir_ino: int, src: Optional[Node] = None) -> SimGen:
        """All dentries of a directory, name-sorted."""
        keys = yield from self.store.list(self.key_dentry_prefix(dir_ino),
                                          src=src)
        return (yield from self.get_dentries(keys, src=src))

    def get_dentries(self, keys: List[str],
                     src: Optional[Node] = None) -> SimGen:
        """The dentries a LIST named, in one batch and in key order."""
        raws = yield from self.store.get_many(keys, src=src)
        # A dentry deleted between LIST and GET simply isn't part of the
        # load — same race a real S3 lister has.
        return [Dentry.from_bytes(raw) for raw in raws if raw is not None]

    def get_inodes(self, inos: List[int],
                   src: Optional[Node] = None) -> SimGen:
        """Many inodes in one batch; a missing one raises ``NoSuchKey``,
        as its own GET would."""
        keys = list(map(self.key_inode, inos))
        raws = yield from self.store.get_many(keys, src=src)
        for key, raw in zip(keys, raws):
            if raw is None:
                raise NoSuchKey(key)
        return [Inode.from_bytes(raw) for raw in raws]

    # -- shard maps ------------------------------------------------------------

    def get_shard_map(self, dir_ino: int, src: Optional[Node] = None) -> SimGen:
        """A sharded directory's partition map, or ``None`` when the
        directory is flat (the common case)."""
        from .shards import ShardMap

        try:
            raw = yield from self.store.get(self.key_shard_map(dir_ino),
                                            src=src)
        except NoSuchKey:
            return None
        return ShardMap.from_bytes(raw)

    def put_shard_map(self, smap, src: Optional[Node] = None) -> SimGen:
        """One atomic PUT — this is the split protocol's commit point when
        the map carries state ``"active"``."""
        yield from self.store.put(self.key_shard_map(smap.dir_ino),
                                  smap.to_bytes(), src=src)

    def delete_shard_map(self, dir_ino: int,
                         src: Optional[Node] = None) -> SimGen:
        try:
            yield from self.store.delete(self.key_shard_map(dir_ino), src=src)
        except NoSuchKey:
            pass

    # -- data path -------------------------------------------------------------------

    def chunk_range(self, offset: int, length: int) -> List[Tuple[int, int, int]]:
        """Split a byte range into per-object pieces.

        Returns ``(object_index, offset_in_object, piece_length)`` triples.
        """
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        osz = self.data_object_size
        pieces = []
        pos = offset
        end = offset + length
        while pos < end:
            idx = pos // osz
            off = pos % osz
            n = min(osz - off, end - pos)
            pieces.append((idx, off, n))
            pos += n
        return pieces

    def read_object(self, ino: int, index: int,
                    src: Optional[Node] = None) -> SimGen:
        """One whole data object; missing objects read as empty (sparse)."""
        try:
            data = yield from self.store.get(self.key_data(ino, index), src=src)
        except NoSuchKey:
            return b""
        return data

    def write_object(self, ino: int, index: int, data: bytes,
                     src: Optional[Node] = None) -> SimGen:
        if len(data) > self.data_object_size:
            raise ValueError("object larger than data_object_size")
        yield from self.store.put(self.key_data(ino, index), data, src=src)

    def read_data(self, ino: int, offset: int, length: int, file_size: int,
                  src: Optional[Node] = None) -> SimGen:
        """Translate a POSIX read into ranged GETs; zero-fills holes."""
        if offset >= file_size:
            return b""
        length = min(length, file_size - offset)
        parts = []
        for idx, off, n in self.chunk_range(offset, length):
            try:
                piece = yield from self.store.get_range(
                    self.key_data(ino, idx), off, n, src=src)
            except NoSuchKey:
                piece = b""
            if len(piece) < n:
                piece = piece + bytes(n - len(piece))
            parts.append(piece)
        # The store's ranged GET already made the one copy: a single piece
        # passes through, several are joined once.
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def write_data(self, ino: int, offset: int, data: bytes,
                   src: Optional[Node] = None) -> SimGen:
        """Translate a POSIX write into object PUTs (read-modify-write at
        the edges when a piece only partially covers an existing object)."""
        if type(data) is not bytes:
            # ``put`` may retain what it is given: hand it immutable bytes.
            data = bytes(data)
        pos = 0
        for idx, off, n in self.chunk_range(offset, len(data)):
            piece = data[pos : pos + n]
            pos += n
            if off == 0 and n == self.data_object_size:
                yield from self.write_object(ino, idx, piece, src=src)
                continue
            old = yield from self.read_object(ino, idx, src=src)
            merged = b"".join((old[:off].ljust(off, b"\x00"), piece,
                               old[off + n :]))
            yield from self.write_object(ino, idx, merged, src=src)

    def truncate_data(self, ino: int, old_size: int, new_size: int,
                      src: Optional[Node] = None) -> SimGen:
        """Drop objects past the new EOF and trim the boundary object."""
        if new_size >= old_size:
            return
        osz = self.data_object_size
        first_dead = -(-new_size // osz)  # ceil: first wholly-dead index
        last = (old_size - 1) // osz if old_size else -1
        dead = [self.key_data(ino, idx)
                for idx in range(first_dead, last + 1)]
        if dead:
            yield from self._purge(dead, src=src)
        if new_size % osz:
            idx = new_size // osz
            old = yield from self.read_object(ino, idx, src=src)
            if len(old) > new_size % osz:
                yield from self.write_object(
                    ino, idx, old[: new_size % osz], src=src)

    def delete_data(self, ino: int, src: Optional[Node] = None) -> SimGen:
        """Remove every data object of a file; returns count deleted."""
        keys = yield from self.store.list(self.key_data_prefix(ino),
                                          src=src)
        return (yield from self._purge(keys, src=src))

    def _purge(self, keys: List[str], src: Optional[Node] = None) -> SimGen:
        """Batched deletion.

        Every purge path (unlink, truncate) funnels here so deletions ride
        ``delete_many`` fan-out instead of one RTT per key, and show up in
        the ``prt.purge`` metrics."""
        if not keys:
            return 0
        if len(keys) == 1:
            self._c_serial_deletes.inc()
        else:
            self._c_purge_batches.inc()
            self._c_batched_deletes.inc(len(keys))
            self._g_purge_batch.track(len(keys))
        return (yield from self.store.delete_many(keys, src=src))
