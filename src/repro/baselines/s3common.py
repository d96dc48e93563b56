"""The path-keyed namespace S3FS and goofys share.

Both map the POSIX namespace onto *full-path object keys* inside a bucket
(the design the paper criticizes: a HEAD per lookup, LIST-based readdir,
copy-and-delete renames, no client coordination). This module holds the
key mapping, client-side delimiter listing, the shared attribute sidecar
(standing in for ``x-amz-meta-*`` headers), functional (cost-free) store
access used when timing has already been charged elsewhere (e.g.
multipart-upload completion), and :class:`PathKeyedClient`, which owns
every namespace verb. The two baselines subclass it with the data paths
the paper credits for their Fig. 6(b) gap.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..objectstore.base import ObjectStore
from ..objectstore.errors import NoSuchKey
from ..posix import path as pathmod
from ..posix.errors import (
    AlreadyExists,
    DirectoryNotEmpty,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotFound,
    UnsupportedOperation,
)
from ..posix.types import Credentials, FileType, OpenFlags, StatResult
from ..posix.vfs import VFSClient
from ..sim.engine import SimGen, Simulator
from ..sim.network import Node

__all__ = ["Bucket", "FileAttrs", "PathKeyedClient", "key_of", "dir_key_of",
           "list_names"]


def key_of(path: str) -> str:
    """``/a/b/c`` → ``a/b/c`` (the S3 object key)."""
    return "/".join(pathmod.split_path(path))


def dir_key_of(path: str) -> str:
    """Directory marker object key (s3fs convention: trailing slash)."""
    k = key_of(path)
    return k + "/" if k else ""


@dataclass
class FileAttrs:
    """The metadata s3fs keeps in x-amz-meta headers."""

    ftype: FileType
    mode: int
    uid: int
    gid: int
    mtime: float
    symlink_target: Optional[str] = None


class Bucket:
    """One mounted bucket: the object store plus the attrs sidecar.

    The sidecar is *shared* between clients (headers live in S3), matching
    real deployments where two mounts of one bucket see each other's
    objects but perform no coordination whatsoever.
    """

    def __init__(self, store: ObjectStore):
        self.store = store
        # Cost-free access goes to the object holder: a cluster store's
        # data plane, else the (in-memory) store itself.
        self._objects = getattr(store, "backing", store)
        self.attrs: Dict[str, FileAttrs] = {}

    # -- functional (pre-charged) access ------------------------------------

    def functional_put(self, key: str, data: bytes) -> None:
        """Install object content whose transfer cost was already charged
        (multipart completion assembles parts server-side for free)."""
        self._objects.sync_put(key, data)

    def functional_delete(self, key: str) -> None:
        try:
            self._objects.sync_delete(key)
        except NoSuchKey:
            pass

    def sync_list(self, prefix: str) -> List[str]:
        return self._objects.sync_list(prefix)


def list_names(keys: List[str], prefix: str) -> List[str]:
    """Client-side delimiter collapse: immediate children under ``prefix``.

    ``prefix`` must be "" (bucket root) or end with "/". Directory markers
    lose their trailing slash; duplicates collapse.
    """
    names = set()
    plen = len(prefix)
    for key in keys:
        rest = key[plen:]
        if not rest:
            continue  # the marker of the listed directory itself
        name = rest.split("/", 1)[0]
        if name:
            names.add(name)
    return sorted(names)


class PathKeyedClient(VFSClient):
    """One mount of a bucket whose object keys are full paths.

    Every namespace verb lives here: a lookup is a HEAD of the key and then
    of the directory marker, readdir is a LIST, and a file rename is a copy
    plus a delete. Subclasses supply the data path (open, read, write,
    fsync, close, truncate), the directory rename, and what an attribute
    change does (:meth:`_setattr`). Permission checks are "not done
    rigorously" and clients of one bucket never coordinate: both are
    reproduced by checking and coordinating nothing.
    """

    #: Name in node names and error messages.
    FS: str
    #: Permission bits of an object that carries no mode header.
    DEFAULT_MODE: int

    def __init__(self, sim: Simulator, node: Node, bucket: Bucket,
                 op_cpu: float):
        self.sim = sim
        self.node = node
        self.bucket = bucket
        self.store = bucket.store
        self.op_cpu = op_cpu
        self.name = node.name

    # -- helpers ------------------------------------------------------------

    def _cpu(self) -> SimGen:
        yield from self.node.work(self.op_cpu)

    def _head(self, path: str) -> SimGen:
        """Returns (key, size, ftype) or raises NotFound. Directories are
        marker objects; the bucket root always exists."""
        if not pathmod.split_path(path):
            yield self.sim.timeout(0)
            return "", 0, FileType.DIRECTORY
        key = key_of(path)
        try:
            size = yield from self.store.head(key, src=self.node)
            a = self.bucket.attrs.get(key)
            return key, size, (a.ftype if a else FileType.REGULAR)
        except NoSuchKey:
            pass
        dkey = dir_key_of(path)
        try:
            yield from self.store.head(dkey, src=self.node)
            return dkey, 0, FileType.DIRECTORY
        except NoSuchKey:
            raise NotFound(path) from None

    def _attrs_of(self, key: str, ftype: FileType) -> FileAttrs:
        """The object's headers, or the defaults an object without any
        shows."""
        return self.bucket.attrs.get(key) or FileAttrs(
            ftype, self.DEFAULT_MODE, 0, 0, self.sim.now)

    def _stat_of(self, key: str, size: int, ftype: FileType) -> StatResult:
        a = self._attrs_of(key, ftype)
        return StatResult(
            st_ino=hash(key) & 0x7FFFFFFF, st_mode=ftype.mode_bits | a.mode,
            st_nlink=1, st_uid=a.uid, st_gid=a.gid, st_size=size,
            st_atime=a.mtime, st_mtime=a.mtime, st_ctime=a.mtime,
        )

    def _new_attrs(self, key: str, ftype: FileType, creds: Credentials,
                   mode: int, target: Optional[str] = None) -> None:
        """Write a new object's headers."""
        self.bucket.attrs[key] = FileAttrs(
            ftype, mode, creds.uid if creds else 0,
            creds.gid if creds else 0, self.sim.now, symlink_target=target)

    def _forget(self, key: str) -> None:
        """Drop this mount's local state for a key that left the bucket."""

    def _move(self, key: str, new_key: str) -> SimGen:
        """S3 has no rename: copy the object and its headers, then delete
        the original."""
        data = yield from self.store.get(key, src=self.node)
        yield from self.store.put(new_key, data, src=self.node)
        if key in self.bucket.attrs:
            self.bucket.attrs[new_key] = self.bucket.attrs.pop(key)
        yield from self.store.delete(key, src=self.node)

    def _open_head(self, path: str, flags: OpenFlags) -> SimGen:
        """The open prologue, following symlinks: (key, size) of the
        regular object to open, with size None when O_CREAT must make it."""
        yield from self._cpu()
        key = key_of(path)
        try:
            _key, size, ftype = yield from self._head(path)
        except NotFound:
            if not flags & OpenFlags.O_CREAT:
                raise
            return key, None
        if ftype is FileType.DIRECTORY:
            raise IsADirectory(path)
        a = self.bucket.attrs.get(key)
        if a is not None and a.symlink_target:
            target = a.symlink_target
            if not target.startswith("/"):
                base, _name = pathmod.parent_and_name(pathmod.normalize(path))
                target = base.rstrip("/") + "/" + target
            return (yield from self._open_head(target, flags))
        if flags & OpenFlags.O_CREAT and flags & OpenFlags.O_EXCL:
            raise AlreadyExists(path)
        return key, size

    @abstractmethod
    def _rename_dir(self, src: str, dst: str) -> SimGen: ...

    @abstractmethod
    def _setattr(self, path: str, **changes) -> SimGen:
        """Apply ``changes`` (FileAttrs fields) to the object's headers."""

    # -- namespace ----------------------------------------------------------

    def stat(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        key, size, ftype = yield from self._head(path)
        return self._stat_of(key, size, ftype)

    lstat = stat  # symlinks are resolved only on open

    def mkdir(self, creds: Credentials, path: str, mode: int = 0o777) -> SimGen:
        yield from self._cpu()
        if not pathmod.split_path(path):
            raise AlreadyExists("/")
        try:
            yield from self._head(path)
            raise AlreadyExists(path)
        except NotFound:
            pass
        dkey = dir_key_of(path)
        yield from self.store.put(dkey, b"", src=self.node)
        self._new_attrs(dkey, FileType.DIRECTORY, creds, mode & 0o777)

    def rmdir(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        if not pathmod.split_path(path):
            raise InvalidArgument("/")
        key, _size, ftype = yield from self._head(path)
        if ftype is not FileType.DIRECTORY:
            raise NotADirectory(path)
        children = yield from self.store.list(key, src=self.node)
        if [k for k in children if k != key]:
            raise DirectoryNotEmpty(path)
        yield from self.store.delete(key, src=self.node)
        self.bucket.attrs.pop(key, None)

    def readdir(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        key, _size, ftype = yield from self._head(path)
        if ftype is not FileType.DIRECTORY:
            raise NotADirectory(path)
        keys = yield from self.store.list(key, src=self.node)
        return list_names(keys, key)

    def unlink(self, creds: Credentials, path: str) -> SimGen:
        yield from self._cpu()
        key, _size, ftype = yield from self._head(path)
        if ftype is FileType.DIRECTORY:
            raise IsADirectory(path)
        yield from self.store.delete(key, src=self.node)
        self.bucket.attrs.pop(key, None)
        self._forget(key)

    def rename(self, creds: Credentials, src: str, dst: str) -> SimGen:
        yield from self._cpu()
        if pathmod.is_ancestor(pathmod.normalize(src), pathmod.normalize(dst)):
            raise InvalidArgument(dst, "destination inside source")
        key, _size, ftype = yield from self._head(src)
        if ftype is FileType.DIRECTORY:
            yield from self._rename_dir(src, dst)
        else:
            yield from self._move(key, key_of(dst))

    # -- attributes -----------------------------------------------------------

    def chmod(self, creds: Credentials, path: str, mode: int) -> SimGen:
        return self._setattr(path, mode=mode & 0o777)

    def chown(self, creds: Credentials, path: str, uid: int, gid: int) -> SimGen:
        return self._setattr(path, uid=uid, gid=gid)

    def utimens(self, creds: Credentials, path: str, atime: float,
                mtime: float) -> SimGen:
        return self._setattr(path, mtime=mtime)

    def access(self, creds: Credentials, path: str, want: int) -> SimGen:
        # "Permission check is not done rigorously": existence only.
        yield from self._cpu()
        yield from self._head(path)
        return True

    # -- links and ACLs: unsupported unless a subclass says otherwise ------------

    def _unsupported(self, path: str, what: str) -> SimGen:
        yield self.sim.timeout(0)
        raise UnsupportedOperation(path, f"{self.FS} does not support {what}")

    def symlink(self, creds: Credentials, target: str, linkpath: str) -> SimGen:
        return self._unsupported(linkpath, "symlinks")

    def readlink(self, creds: Credentials, path: str) -> SimGen:
        return self._unsupported(path, "symlinks")

    def getfacl(self, creds: Credentials, path: str) -> SimGen:
        return self._unsupported(path, "POSIX ACLs")

    def setfacl(self, creds: Credentials, path: str, acl) -> SimGen:
        return self._unsupported(path, "POSIX ACLs")

    # -- durability helpers -------------------------------------------------------

    def sync(self) -> SimGen:
        yield self.sim.timeout(0)

    def drop_caches(self) -> SimGen:
        yield self.sim.timeout(0)
