"""The client-side leased data path (Section III-D), shared by ArkFS and
the centralized-MDS baselines (CephFS, MarFS).

An open file's state (:class:`OpenState`) carries the read/write lease
its client holds. A read or write reuses that lease while it is valid and
sufficient, else asks for a new one; a changed version means a revocation
may have been missed, so the cached copy is dropped. Under a READ or WRITE
lease data goes through the client's write-back data-object cache; under
a DIRECT lease it goes straight to the object store. Size and mtime are
published when a file that was written is closed (or fsync'd), and right
after every DIRECT write.

A client class mixing in :class:`LeasedDataPath` provides ``sim``,
``node``, ``prt``, ``cache``, ``fleases`` (the :class:`FileLeaseService`
that governs its files), ``_open_dirs`` (open handles per parent
directory) and the three hooks below. Each hook runs only where a lease
or metadata request is made anyway; a read, write or close served under
a valid lease calls none of them.

* ``_request_lease(handle, st, want)`` — a generator that returns a fresh
  :class:`FileLeaseGrant` for ``want`` (READ or WRITE).
* ``_publish(handle, st)`` — a generator that publishes ``st.size`` and
  ``st.mtime`` where the file's metadata lives.
* ``_publish_direct(handle, st)`` — the same after a DIRECT write.

``_open_dirs``, ``OpenState.parent_ino`` and ``OpenState.name`` serve
ArkFS only: its lease and publish requests route by the parent directory,
and a directory lease is kept renewed while a file in it is open. The
shared ``close`` decrements ``_open_dirs`` so that ArkFS's close costs no
extra call; the baselines fill in ``parent_ino`` and ``name``, never count
open files, and their empty ``_open_dirs`` makes that decrement a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..posix.errors import BadFileHandle, NotFound
from ..posix.types import OpenFlags
from ..posix.vfs import FileHandle
from ..sim.engine import SimGen
from .cache import ReadAheadState
from .filelease import DIRECT, READ, WRITE, FileLeaseGrant

__all__ = ["LeasedDataPath", "OpenState"]


@dataclass
class OpenState:
    """Per-open-file private state hung off the VFS handle."""

    parent_ino: int
    name: str
    size: int
    mtime: float
    lease: Optional[FileLeaseGrant] = None
    ra: ReadAheadState = field(default_factory=ReadAheadState)
    wrote: bool = False


class LeasedDataPath:
    """Mixin: open-file read/write/close under read/write leases."""

    def _check_handle(self, handle: FileHandle) -> None:
        if handle.closed or not isinstance(handle.impl, OpenState):
            raise BadFileHandle(detail="handle closed or foreign")

    def _file_lease(self, handle: FileHandle, want: str,
                    nbytes: int) -> SimGen:
        """Ensure a valid (and sufficient) data lease for this handle; the
        data op's one admission point (``nbytes`` is for a client layer)."""
        st: OpenState = handle.impl
        g = st.lease
        now = self.sim.now
        if (g is not None and g.expires_at > now
                and not (want == WRITE and g.mode == READ)):
            return g
        grant = yield from self._request_lease(handle, st, want)
        if g is None or grant.version != g.version:
            # We may have missed a revocation while our lease was lapsed:
            # any cached data is suspect.
            yield from self.cache.invalidate(handle.ino, flush_dirty=False)
        st.lease = grant
        return grant

    def read(self, handle: FileHandle, size: int,
             offset: Optional[int] = None) -> SimGen:
        self._check_handle(handle)
        if handle.flags & 1:  # not flags.wants_read, without the property
            raise BadFileHandle(detail="not open for reading")
        st: OpenState = handle.impl
        pos = handle.pos if offset is None else offset
        eff = max(0, min(size, st.size - pos))
        grant = yield from self._file_lease(handle, READ, eff)
        if eff == 0:
            data = b""
        elif grant.mode == DIRECT:
            data = yield from self.prt.read_data(handle.ino, pos, eff,
                                                 st.size, src=self.node)
        else:
            data = yield from self.cache.read(handle.ino, pos, eff, ra=st.ra)
        if offset is None:
            handle.pos = pos + len(data)
        return data

    def write(self, handle: FileHandle, data: bytes,
              offset: Optional[int] = None) -> SimGen:
        self._check_handle(handle)
        if not 0 < handle.flags & 0o3 < 3:  # flags.wants_write, likewise
            raise BadFileHandle(detail="not open for writing")
        st: OpenState = handle.impl
        if handle.flags & OpenFlags.O_APPEND:
            pos = st.size
        else:
            pos = handle.pos if offset is None else offset
        grant = yield from self._file_lease(handle, WRITE, len(data))
        if grant.mode == DIRECT:
            yield from self.prt.write_data(handle.ino, pos, data,
                                           src=self.node)
            st.size = max(st.size, pos + len(data))
            st.mtime = self.sim.now
            yield from self._publish_direct(handle, st)
        else:
            yield from self.cache.write(handle.ino, pos, data,
                                        old_size=st.size)
            st.size = max(st.size, pos + len(data))
            st.mtime = self.sim.now
            st.wrote = True
        if offset is None:
            handle.pos = pos + len(data)
        return len(data)

    def close(self, handle: FileHandle) -> SimGen:
        self._check_handle(handle)
        st: OpenState = handle.impl
        if st.wrote:
            # Publish size/mtime; the data stays write-back cached.
            try:
                yield from self._publish(handle, st)
            except NotFound:
                pass  # file unlinked while open: nothing to publish
            st.wrote = False
        else:
            yield self.sim.timeout(0)
        handle.closed = True
        n = self._open_dirs.get(st.parent_ino, 1)
        if n <= 1:
            self._open_dirs.pop(st.parent_ino, None)
        else:
            self._open_dirs[st.parent_ino] = n - 1

    def drop_caches(self) -> SimGen:
        """Flush then drop all cached data (fio's between-phase cache drop)."""
        yield from self.cache.drop_all()

    def _truncate_file_data(self, ino: int, old_size: int,
                            new_size: int) -> SimGen:
        """Drop a file's data past new EOF: revoke holder caches, then
        delete the backing objects."""
        yield from self.fleases.revoke_holders(ino)
        yield from self.prt.truncate_data(ino, old_size, new_size,
                                          src=self.node)
