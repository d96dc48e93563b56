"""The client-side leased data path (Section III-D), shared by ArkFS and
the centralized-MDS baselines (CephFS, MarFS).

A client keeps one :class:`OpenFile` record per file it has open; a
revocation reaches it through ``_revoked`` (flush and drop the cached
copy, expire the grant, take a truncate's size). A read or write reuses
a valid, sufficient grant, else asks ``_request_lease`` for one and the
file's size (taken unless a write is unpublished); a changed version
drops the cached copy, as a revocation may have been missed. READ/WRITE
data is cached, DIRECT data goes to the object store. ``_publish`` and
``_publish_direct`` publish the record's size and mtime; a read or write
under a valid grant calls no hook. ``_open_dirs`` counts ArkFS's open
handles per parent directory, whose lease is kept while they are open.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..posix.errors import BadFileHandle, NotFound
from ..posix.types import OpenFlags
from ..posix.vfs import FileHandle
from ..sim.engine import SimGen
from .cache import ReadAheadState
from .filelease import DIRECT, READ, WRITE, FileLeaseGrant

__all__ = ["LeasedDataPath", "OpenFile", "OpenState"]


@dataclass
class OpenFile:
    """A client's record of a file it has open, shared by its handles."""

    lease: FileLeaseGrant
    size: int
    mtime: float
    wrote: bool = False
    count: int = 0


@dataclass
class OpenState:
    """One handle's own state, hung off the VFS handle."""

    parent_ino: int
    name: str
    file: OpenFile
    ra: ReadAheadState = field(default_factory=ReadAheadState)


class LeasedDataPath:
    """Mixin: open-file read/write/close under read/write leases."""

    def _check_handle(self, handle: FileHandle) -> None:
        if handle.closed or not isinstance(handle.impl, OpenState):
            raise BadFileHandle(detail="handle closed or foreign")

    def _opened(self, handle: FileHandle, parent_ino: int, name: str,
                inode, grant: FileLeaseGrant) -> OpenFile:
        """Hang a new handle on its file's record, made at the first open. A
        later open brings its grant (expired if the version moved, so the
        next grant compares it) and size (an unpublished size only grows)."""
        f = self._open_files.get(handle.ino)
        if f is None:
            f = self._open_files[handle.ino] = OpenFile(
                grant, inode.size, inode.mtime)
        else:
            f.lease = grant if grant.version == f.lease.version else replace(
                f.lease, expires_at=0.0)
            f.size = max(f.size, inode.size) if f.wrote else inode.size
            f.mtime = f.mtime if f.wrote else inode.mtime
        f.count += 1
        handle.impl = OpenState(parent_ino, name, f)
        if handle.flags & OpenFlags.O_APPEND:
            handle.pos = f.size
        return f

    def _revoked(self, ino: int, size: Optional[int] = None) -> SimGen:
        """A holder's side of a revocation (``size``: a truncate's): flush
        and drop the cached file, expire the record's lease and give the
        record the truncate's size."""
        yield from self.cache.invalidate(ino, flush_dirty=True)
        f = self._open_files.get(ino)
        if f is not None:
            f.lease = replace(f.lease, expires_at=0.0)
            if size is not None:
                yield from self._truncated(ino, size)

    def _file_lease(self, handle: FileHandle, want: str) -> SimGen:
        """Ensure a valid, sufficient data lease for this handle's file."""
        st: OpenState = handle.impl
        f = st.file
        g = f.lease
        if (g.expires_at > self.sim.now
                and not (want == WRITE and g.mode == READ)):
            return g
        grant, size = yield from self._request_lease(handle, st, want)
        if grant.version != f.lease.version:  # a sibling may have renewed
            # We may have missed a revocation while our lease was lapsed:
            # any cached data is suspect.
            yield from self.cache.invalidate(handle.ino, flush_dirty=False)
        f.lease = grant
        if size is not None and not f.wrote:
            f.size = size
        return grant

    def read(self, handle: FileHandle, size: int,
             offset: Optional[int] = None) -> SimGen:
        self._check_handle(handle)
        if handle.flags & 1:  # not flags.wants_read, without the property
            raise BadFileHandle(detail="not open for reading")
        st: OpenState = handle.impl
        f = st.file
        pos = handle.pos if offset is None else offset
        grant = yield from self._file_lease(handle, READ)
        eff = max(0, min(size, f.size - pos))  # a grant may bring a size
        if eff == 0:
            data = b""
        elif grant.mode == DIRECT:
            data = yield from self.prt.read_data(handle.ino, pos, eff,
                                                 f.size, src=self.node)
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
        f = st.file
        grant = yield from self._file_lease(handle, WRITE)
        if handle.flags & OpenFlags.O_APPEND:
            pos = f.size
        else:
            pos = handle.pos if offset is None else offset
        if grant.mode == DIRECT:
            yield from self.prt.write_data(handle.ino, pos, data,
                                           src=self.node)
        else:
            yield from self.cache.write(handle.ino, pos, data,
                                        old_size=f.size)
        f.size = max(f.size, pos + len(data))
        f.mtime = self.sim.now
        if grant.mode == DIRECT:
            yield from self._publish_direct(handle, st)
        else:
            f.wrote = True
        if offset is None:
            handle.pos = pos + len(data)
        return len(data)

    def fsync(self, handle: FileHandle) -> SimGen:
        self._check_handle(handle)
        st: OpenState = handle.impl
        yield from self.cache.flush(handle.ino)
        if st.file.wrote:
            yield from self._publish(handle, st)
            st.file.wrote = False

    def close(self, handle: FileHandle) -> SimGen:
        self._check_handle(handle)
        st: OpenState = handle.impl
        f = st.file
        if f.wrote:
            # Publish size/mtime; the data stays write-back cached.
            try:
                yield from self._publish(handle, st)
            except NotFound:
                pass  # file unlinked while open: nothing to publish
            f.wrote = False
        else:
            yield self.sim.timeout(0)
        handle.closed = True
        f.count -= 1
        if self._open_files.get(handle.ino) is not f:
            return  # opened before a crash: the counts are a new life's
        if not f.count:
            del self._open_files[handle.ino]
        n = self._open_dirs.get(st.parent_ino, 1)
        if n <= 1:
            self._open_dirs.pop(st.parent_ino, None)
        else:
            self._open_dirs[st.parent_ino] = n - 1

    def drop_caches(self) -> SimGen:
        """Flush then drop all cached data (fio's between-phase cache drop)."""
        yield from self.cache.drop_all()

    def _truncated(self, ino: int, size: int) -> SimGen:
        """A truncate reached the record (this client's, or another's by
        revocation): it takes the new size, and unpublished bytes past it,
        unseen by the truncate, are cut."""
        f = self._open_files.get(ino)
        if f is not None:
            if f.wrote and f.size > size:
                yield from self._revoked(ino)
                yield from self.prt.truncate_data(ino, f.size, size,
                                                  src=self.node)
            f.size = size

    def _truncate_file_data(self, ino: int, old_size: int,
                            new_size: int) -> SimGen:
        """Drop a file's data past new EOF: revoke holder caches, then
        delete the backing objects."""
        yield from self.fleases.revoke_holders(ino, size=new_size)
        yield from self.prt.truncate_data(ino, old_size, new_size,
                                          src=self.node)
