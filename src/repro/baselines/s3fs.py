"""S3FS baseline: a FUSE wrapper mapping each object to a file.

The namespace is :class:`~repro.baselines.s3common.PathKeyedClient`'s
(full-path keys, a HEAD per lookup, LIST-based readdir, no permission
checks, no coordination between mounts). This module adds what the paper
calls out for S3FS (Section II-C and IV-B):

* renaming a directory rewrites every object under it (O(subtree));
* random writes or appends rewrite the entire object (GET whole + PUT
  whole), and so do chmod/chown/utimens, which rewrite the headers;
* data is staged through a *disk cache* — a slow EBS volume — on both the
  write path (writes land on disk, upload happens at fsync/flush) and the
  read path (objects are downloaded to disk before serving reads). This
  disk staging is what costs S3FS 5.95x WRITE / 3.59x READ vs ArkFS in
  Fig. 6(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..objectstore.cluster import LocalDisk
from ..objectstore.profiles import DiskProfile, EBS_SLOW_CACHE
from ..posix.errors import BadFileHandle, InvalidArgument, IsADirectory
from ..posix.types import Credentials, FileType, OpenFlags
from ..posix.vfs import FileHandle
from ..sim.engine import SimGen, Simulator
from ..sim.network import Node
from .s3common import Bucket, PathKeyedClient, dir_key_of, key_of

__all__ = ["S3FSClient"]


@dataclass
class _Staged:
    """A file staged in the disk cache."""

    data: bytearray
    dirty: bool = False


class S3FSClient(PathKeyedClient):
    """One s3fs mount of a bucket."""

    FS = "s3fs"
    DEFAULT_MODE = 0o777

    def __init__(self, sim: Simulator, node: Node, bucket: Bucket,
                 disk_profile: DiskProfile = EBS_SLOW_CACHE,
                 op_cpu: float = 8e-6):
        super().__init__(sim, node, bucket, op_cpu)
        self.disk = LocalDisk(sim, disk_profile, name=f"{node.name}.s3fs-cache")
        self._staged: Dict[str, _Staged] = {}

    #: s3fs downloads big objects with parallel ranged GETs
    #: (multipart_size=10MB, parallel_count=5 by default).
    DOWNLOAD_CHUNK = 10 * 1024 * 1024
    DOWNLOAD_PARALLEL = 5

    def _stage_download(self, key: str, size: int) -> SimGen:
        """Download the whole object (parallel ranged GETs) and write it
        through the disk cache."""
        staged = self._staged.get(key)
        if staged is not None:
            return staged
        if size <= self.DOWNLOAD_CHUNK:
            data = yield from self.store.get(key, src=self.node)
        else:
            pieces: dict = {}

            def fetch(idx: int, off: int, n: int) -> SimGen:
                pieces[idx] = yield from self.store.get_range(
                    key, off, n, src=self.node)

            offsets = list(range(0, size, self.DOWNLOAD_CHUNK))
            for batch_start in range(0, len(offsets), self.DOWNLOAD_PARALLEL):
                batch = offsets[batch_start:batch_start +
                                self.DOWNLOAD_PARALLEL]
                procs = [
                    self.sim.process(fetch(i, off,
                                           min(self.DOWNLOAD_CHUNK,
                                               size - off)))
                    for i, off in enumerate(batch, start=batch_start)
                ]
                yield self.sim.all_of(procs)
            data = b"".join(pieces[i] for i in range(len(offsets)))
        yield from self.disk.write(len(data))
        staged = _Staged(bytearray(data))
        self._staged[key] = staged
        return staged

    def _forget(self, key: str) -> None:
        self._staged.pop(key, None)

    def _move(self, key: str, new_key: str) -> SimGen:
        # Unflushed writes move with the object. The old name's staging
        # entry is left clean, so a handle still open on it keeps reading
        # and a later close has nothing to PUT back.
        yield from self._flush_key(key)
        yield from super()._move(key, new_key)

    def _rename_dir(self, src: str, dst: str) -> SimGen:
        """The paper's key criticism of path-keyed designs: the LIST holds
        the marker itself plus everything below it, and every single object
        is copied and deleted."""
        src_prefix = dir_key_of(src)
        dst_prefix = dir_key_of(dst)
        subtree = yield from self.store.list(src_prefix, src=self.node)
        for k in subtree:
            yield from self._move(k, dst_prefix + k[len(src_prefix):])

    # -- data ------------------------------------------------------------------------------

    def open(self, creds: Credentials, path: str, flags: OpenFlags,
             mode: int = 0o666) -> SimGen:
        key, size = yield from self._open_head(path, flags)
        if size is None:
            yield from self.store.put(key, b"", src=self.node)
            self._new_attrs(key, FileType.REGULAR, creds,
                            creds.apply_umask(mode) if creds else mode & 0o777)
            size = 0
        if flags & OpenFlags.O_TRUNC and size:
            self._staged[key] = _Staged(bytearray(), dirty=True)
            size = 0
        handle = FileHandle(hash(key) & 0x7FFFFFFF, flags, creds,
                            impl={"key": key, "size": size})
        if flags & OpenFlags.O_APPEND:
            handle.pos = size
        return handle

    def read(self, handle: FileHandle, size: int,
             offset: Optional[int] = None) -> SimGen:
        if handle.closed:
            raise BadFileHandle()
        key = handle.impl["key"]
        pos = handle.pos if offset is None else offset
        staged = self._staged.get(key)
        if staged is None:
            # Download through the slow disk cache before serving anything.
            obj_size = handle.impl["size"]
            if obj_size:
                staged = yield from self._stage_download(key, obj_size)
            else:
                staged = _Staged(bytearray())
                self._staged[key] = staged
        yield from self.disk.read(min(size, max(0, len(staged.data) - pos)))
        data = bytes(staged.data[pos : pos + size])
        if offset is None:
            handle.pos = pos + len(data)
        return data

    def write(self, handle: FileHandle, data: bytes,
              offset: Optional[int] = None) -> SimGen:
        if handle.closed:
            raise BadFileHandle()
        key = handle.impl["key"]
        pos = handle.impl["size"] if handle.flags & OpenFlags.O_APPEND else (
            handle.pos if offset is None else offset)
        staged = self._staged.get(key)
        if staged is None:
            obj_size = handle.impl["size"]
            if obj_size:
                # A partial rewrite or an append: either way the whole
                # object is downloaded now and rewritten at flush time.
                staged = yield from self._stage_download(key, obj_size)
            else:
                staged = _Staged(bytearray())
                self._staged[key] = staged
        if len(staged.data) < pos:
            staged.data += b"\x00" * (pos - len(staged.data))
        staged.data[pos : pos + len(data)] = data
        staged.dirty = True
        yield from self.disk.write(len(data))
        handle.impl["size"] = max(handle.impl["size"] or 0,
                                  pos + len(data))
        if offset is None:
            handle.pos = pos + len(data)
        return len(data)

    def fsync(self, handle: FileHandle) -> SimGen:
        if handle.closed:
            raise BadFileHandle()
        yield from self._flush_key(handle.impl["key"])

    def _flush_key(self, key: str) -> SimGen:
        staged = self._staged.get(key)
        if staged is None or not staged.dirty:
            return
        # Read the staged file back off the slow disk, then PUT whole.
        yield from self.disk.read(len(staged.data))
        yield from self.store.put(key, bytes(staged.data), src=self.node)
        staged.dirty = False
        a = self.bucket.attrs.get(key)
        if a is not None:
            a.mtime = self.sim.now

    def close(self, handle: FileHandle) -> SimGen:
        yield from self._flush_key(handle.impl["key"])
        handle.closed = True

    def truncate(self, creds: Credentials, path: str, size: int) -> SimGen:
        yield from self._cpu()
        key, _old, ftype = yield from self._head(path)
        if ftype is FileType.DIRECTORY:
            raise IsADirectory(path)
        data = yield from self.store.get(key, src=self.node)
        if size <= len(data):
            out = data[:size]
        else:
            out = data + b"\x00" * (size - len(data))
        yield from self.store.put(key, out, src=self.node)
        staged = self._staged.get(key)
        if staged is not None:
            staged.data = bytearray(out)
            staged.dirty = False

    # -- attributes (whole-object metadata rewrite) -------------------------------------------

    def _setattr(self, path: str, **changes) -> SimGen:
        """chmod/chown/utimens on s3fs copy the object to update its
        headers."""
        yield from self._cpu()
        key, size, ftype = yield from self._head(path)
        if ftype is not FileType.DIRECTORY and size:
            data = yield from self.store.get(key, src=self.node)
            yield from self.store.put(key, data, src=self.node)
        a = self._attrs_of(key, ftype)
        for field, value in changes.items():
            setattr(a, field, value)
        self.bucket.attrs[key] = a

    # -- links ----------------------------------------------------------------------------------

    def symlink(self, creds: Credentials, target: str, linkpath: str) -> SimGen:
        yield from self._cpu()
        key = key_of(linkpath)
        yield from self.store.put(key, target.encode(), src=self.node)
        self._new_attrs(key, FileType.SYMLINK, creds, 0o777, target)

    def readlink(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        key = key_of(path)
        a = self.bucket.attrs.get(key)
        if a is None or not a.symlink_target:
            raise InvalidArgument(path, "not a symlink")
        yield from self.store.head(key, src=self.node)
        return a.symlink_target

    # -- durability helpers ---------------------------------------------------------------------------

    def sync(self) -> SimGen:
        for key in list(self._staged):
            yield from self._flush_key(key)

    def drop_caches(self) -> SimGen:
        yield from self.sync()
        self._staged.clear()
