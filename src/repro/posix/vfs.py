"""The VFS operation surface every file system in this repo implements.

ArkFS, CephFS, MarFS, S3FS and goofys models all expose this interface, so
the workloads (mdtest, fio, tar) and the examples are written once. All
operations are simulation coroutines; :class:`SyncFS` wraps a client in a
blocking facade for scripts and tests that drive one operation at a time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Optional

from ..sim.engine import SimGen, Simulator
from .errors import AlreadyExists, FSError, NotFound, UnsupportedOperation
from .path import join, split_path
from .types import Credentials, OpenFlags, StatResult

__all__ = ["FileHandle", "VFSClient", "SyncFS", "SyncFile"]

# The helpers' flag sets, built once: each ``|`` runs Python code in enum.py.
_CREATE = OpenFlags.O_CREAT | OpenFlags.O_EXCL | OpenFlags.O_WRONLY
_OVERWRITE = OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_TRUNC


class FileHandle:
    """An open file description: identity plus a file offset.

    Concrete file systems subclass or wrap this to attach cache and lease
    state; the workloads only rely on the fields here.
    """

    __slots__ = ("ino", "flags", "pos", "creds", "closed", "impl")

    def __init__(self, ino: int, flags: OpenFlags, creds: Credentials,
                 impl: Any = None):
        self.ino = ino
        self.flags = flags
        self.pos = 0
        self.creds = creds
        self.closed = False
        self.impl = impl  # filesystem-private state


class VFSClient(ABC):
    """One client's view of a file system (near-POSIX operation set).

    Path arguments are absolute. ``read``/``write`` use and advance the
    handle offset unless ``offset`` is given (pread/pwrite semantics, which
    do not move the offset).
    """

    sim: Simulator

    # -- namespace -----------------------------------------------------------

    @abstractmethod
    def mkdir(self, creds: Credentials, path: str, mode: int = 0o777) -> SimGen: ...

    @abstractmethod
    def rmdir(self, creds: Credentials, path: str) -> SimGen: ...

    @abstractmethod
    def open(self, creds: Credentials, path: str, flags: OpenFlags,
             mode: int = 0o666) -> SimGen: ...

    @abstractmethod
    def close(self, handle: FileHandle) -> SimGen: ...

    @abstractmethod
    def unlink(self, creds: Credentials, path: str) -> SimGen: ...

    @abstractmethod
    def stat(self, creds: Credentials, path: str) -> SimGen: ...

    @abstractmethod
    def lstat(self, creds: Credentials, path: str) -> SimGen: ...

    @abstractmethod
    def readdir(self, creds: Credentials, path: str) -> SimGen: ...

    @abstractmethod
    def rename(self, creds: Credentials, src: str, dst: str) -> SimGen: ...

    # -- data ------------------------------------------------------------------

    @abstractmethod
    def read(self, handle: FileHandle, size: int,
             offset: Optional[int] = None) -> SimGen: ...

    @abstractmethod
    def write(self, handle: FileHandle, data: bytes,
              offset: Optional[int] = None) -> SimGen: ...

    @abstractmethod
    def fsync(self, handle: FileHandle) -> SimGen: ...

    @abstractmethod
    def truncate(self, creds: Credentials, path: str, size: int) -> SimGen: ...

    # -- attributes ---------------------------------------------------------------

    @abstractmethod
    def chmod(self, creds: Credentials, path: str, mode: int) -> SimGen: ...

    @abstractmethod
    def chown(self, creds: Credentials, path: str, uid: int, gid: int) -> SimGen: ...

    @abstractmethod
    def utimens(self, creds: Credentials, path: str, atime: float,
                mtime: float) -> SimGen: ...

    @abstractmethod
    def access(self, creds: Credentials, path: str, want: int) -> SimGen: ...

    # -- links ------------------------------------------------------------------

    @abstractmethod
    def symlink(self, creds: Credentials, target: str, linkpath: str) -> SimGen: ...

    @abstractmethod
    def readlink(self, creds: Credentials, path: str) -> SimGen: ...

    # -- ACLs (near-POSIX differentiator; baselines may raise Unsupported) -------

    @abstractmethod
    def getfacl(self, creds: Credentials, path: str) -> SimGen: ...

    @abstractmethod
    def setfacl(self, creds: Credentials, path: str, acl) -> SimGen: ...

    def statfs(self, creds: Credentials) -> SimGen:
        """statfs(2): file-system-wide usage. Default: unsupported."""
        yield self.sim.timeout(0)
        raise UnsupportedOperation(detail="statfs not implemented")

    # -- FUSE-facing primitive ------------------------------------------------------

    def lookup(self, creds: Credentials, dir_path: str, name: str) -> SimGen:
        """Resolve one component (a FUSE LOOKUP request): returns the child's
        stat. Default implementation is an lstat of the joined path, which
        per the paper means a full path traversal per LOOKUP; file systems
        with cheaper single-component resolution override this."""
        return self.lstat(creds, join(dir_path, name))

    # -- conveniences built on the primitives -------------------------------------

    def create(self, creds: Credentials, path: str, mode: int = 0o666) -> SimGen:
        """creat(2): O_CREAT|O_EXCL|O_WRONLY."""
        return self.open(creds, path, _CREATE, mode)

    def exists(self, creds: Credentials, path: str) -> SimGen:
        try:
            yield from self.lstat(creds, path)
        except NotFound:
            return False
        except FSError:
            raise
        return True

    def read_file(self, creds: Credentials, path: str,
                  chunk: int = 1 << 20) -> SimGen:
        """Slurp a whole file (sequentially, in ``chunk``-sized reads)."""
        h = yield from self.open(creds, path, OpenFlags.O_RDONLY)
        try:
            pieces = []
            while True:
                data = yield from self.read(h, chunk)
                if not data:
                    break
                pieces.append(data)
            return b"".join(pieces)
        finally:
            yield from self.close(h)

    def write_file(self, creds: Credentials, path: str, data: bytes,
                   mode: int = 0o666, chunk: int = 1 << 20,
                   do_fsync: bool = False) -> SimGen:
        """Create/overwrite a file with ``data``."""
        h = yield from self.open(creds, path, _OVERWRITE, mode)
        try:
            view = memoryview(data)
            for off in range(0, len(data), chunk):
                yield from self.write(h, bytes(view[off : off + chunk]))
            if do_fsync:
                yield from self.fsync(h)
        finally:
            yield from self.close(h)


class SyncFile:
    """Blocking wrapper around an open handle (for :class:`SyncFS`)."""

    def __init__(self, syncfs: "SyncFS", handle: FileHandle):
        self._fs = syncfs
        self.handle = handle

    def read(self, size: int, offset: Optional[int] = None) -> bytes:
        return self._fs._run(self._fs.client.read(self.handle, size, offset))

    def write(self, data: bytes, offset: Optional[int] = None) -> int:
        return self._fs._run(self._fs.client.write(self.handle, data, offset))

    def fsync(self) -> None:
        self._fs._run(self._fs.client.fsync(self.handle))

    def close(self) -> None:
        self._fs._run(self._fs.client.close(self.handle))

    def __enter__(self) -> "SyncFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SyncFS:
    """Run VFS coroutines to completion one at a time.

    This is the ergonomic front door for examples and semantic tests: each
    call advances the simulation until the operation (and anything it wakes,
    e.g. journal commit threads) finishes.
    """

    def __init__(self, client: VFSClient, creds: Credentials):
        self.client = client
        self.creds = creds

    def _run(self, gen: SimGen) -> Any:
        return self.client.sim.run_process(gen)

    def as_user(self, creds: Credentials) -> "SyncFS":
        return SyncFS(self.client, creds)

    # Namespace
    def mkdir(self, path: str, mode: int = 0o777) -> None:
        self._run(self.client.mkdir(self.creds, path, mode))

    def makedirs(self, path: str, mode: int = 0o777) -> None:
        parts = split_path(path)
        for i in range(1, len(parts) + 1):
            try:
                self.mkdir("/" + "/".join(parts[:i]), mode)
            except AlreadyExists:
                pass

    def rmdir(self, path: str) -> None:
        self._run(self.client.rmdir(self.creds, path))

    def open(self, path: str, flags: OpenFlags, mode: int = 0o666) -> SyncFile:
        h = self._run(self.client.open(self.creds, path, flags, mode))
        return SyncFile(self, h)

    def create(self, path: str, mode: int = 0o666) -> SyncFile:
        h = self._run(self.client.create(self.creds, path, mode))
        return SyncFile(self, h)

    def unlink(self, path: str) -> None:
        self._run(self.client.unlink(self.creds, path))

    def stat(self, path: str) -> StatResult:
        return self._run(self.client.stat(self.creds, path))

    def lstat(self, path: str) -> StatResult:
        return self._run(self.client.lstat(self.creds, path))

    def readdir(self, path: str) -> List[str]:
        return self._run(self.client.readdir(self.creds, path))

    def rename(self, src: str, dst: str) -> None:
        self._run(self.client.rename(self.creds, src, dst))

    def truncate(self, path: str, size: int) -> None:
        self._run(self.client.truncate(self.creds, path, size))

    # Attributes
    def chmod(self, path: str, mode: int) -> None:
        self._run(self.client.chmod(self.creds, path, mode))

    def chown(self, path: str, uid: int, gid: int) -> None:
        self._run(self.client.chown(self.creds, path, uid, gid))

    def utimens(self, path: str, atime: float, mtime: float) -> None:
        self._run(self.client.utimens(self.creds, path, atime, mtime))

    def access(self, path: str, want: int) -> bool:
        return self._run(self.client.access(self.creds, path, want))

    # Links
    def symlink(self, target: str, linkpath: str) -> None:
        self._run(self.client.symlink(self.creds, target, linkpath))

    def readlink(self, path: str) -> str:
        return self._run(self.client.readlink(self.creds, path))

    # ACLs
    def getfacl(self, path: str):
        return self._run(self.client.getfacl(self.creds, path))

    def setfacl(self, path: str, acl) -> None:
        self._run(self.client.setfacl(self.creds, path, acl))

    def statfs(self):
        return self._run(self.client.statfs(self.creds))

    # Conveniences
    def exists(self, path: str) -> bool:
        return self._run(self.client.exists(self.creds, path))

    def read_file(self, path: str) -> bytes:
        return self._run(self.client.read_file(self.creds, path))

    def write_file(self, path: str, data: bytes, mode: int = 0o666,
                   do_fsync: bool = False) -> None:
        self._run(self.client.write_file(self.creds, path, data, mode,
                                         do_fsync=do_fsync))
