"""A centralized hierarchical namespace (the state an MDS cluster manages).

This is the functional core shared by the CephFS and MarFS baselines: a
plain in-memory tree of inodes mutated synchronously. All *timing* (RPC
round trips, MDS service, lock contention) is charged by the MDS model in
:mod:`repro.baselines.mds`; this module is pure state + POSIX checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..posix.acl import Acl, check_perm
from ..posix.errors import (
    AlreadyExists,
    DirectoryNotEmpty,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotFound,
    NotPermitted,
    PermissionDenied,
    TooManySymlinks,
)
from ..posix.types import Credentials, FileType, OpenFlags, R_OK, W_OK, X_OK
from ..core.types import Inode, InoAllocator, ROOT_INO

__all__ = ["Namespace", "NSNode"]


class NSNode:
    __slots__ = ("inode", "children")

    def __init__(self, inode: Inode):
        self.inode = inode
        self.children: Optional[Dict[str, int]] = (
            {} if inode.ftype is FileType.DIRECTORY else None
        )


class Namespace:
    """The global file-system tree held by the metadata service."""

    def __init__(self, alloc: InoAllocator, now: float = 0.0):
        self.alloc = alloc
        root = Inode(ino=ROOT_INO, ftype=FileType.DIRECTORY, mode=0o777,
                     uid=0, gid=0, atime=now, mtime=now, ctime=now)
        self.nodes: Dict[int, NSNode] = {ROOT_INO: NSNode(root)}

    # -- helpers ---------------------------------------------------------------

    def node(self, ino: int) -> NSNode:
        try:
            return self.nodes[ino]
        except KeyError:
            raise NotFound(f"ino {ino:x}") from None

    def _check(self, inode: Inode, creds: Optional[Credentials],
               want: int) -> None:
        if creds is not None and not check_perm(
            inode.acl, inode.mode, inode.uid, inode.gid, creds, want
        ):
            raise PermissionDenied(f"ino {inode.ino:x}")

    def _dir(self, ino: int) -> NSNode:
        n = self.node(ino)
        if n.children is None:
            raise NotADirectory(f"ino {ino:x}")
        return n

    # -- resolution -------------------------------------------------------------

    def resolve(self, creds: Optional[Credentials], parts: List[str],
                follow_final: bool = True, base: int = ROOT_INO,
                _depth: int = 0) -> int:
        """Walk components from ``base`` (the root by default); returns the
        final ino."""
        if _depth > 40:
            raise TooManySymlinks("/".join(parts))
        cur = base
        for i, name in enumerate(parts):
            d = self._dir(cur)
            self._check(d.inode, creds, X_OK)
            child_ino = d.children.get(name)
            if child_ino is None:
                raise NotFound(name)
            child = self.node(child_ino)
            is_final = i == len(parts) - 1
            if child.inode.is_symlink and (not is_final or follow_final):
                target = child.inode.symlink_target or ""
                tparts = [c for c in target.split("/") if c and c != "."]
                # An absolute target restarts at the root, a relative one
                # at the link's directory.
                start = ROOT_INO if target.startswith("/") else cur
                return self.resolve(creds, tparts + parts[i + 1:],
                                    follow_final, start, _depth + 1)
            cur = child_ino
        return cur

    def resolve_parent(self, creds, parts: List[str]) -> Tuple[int, str]:
        if not parts:
            raise InvalidArgument("/", "needs a parent")
        return self.resolve(creds, parts[:-1]), parts[-1]

    # -- operations (synchronous state changes) -------------------------------------

    def lookup(self, creds, dir_ino: int, name: str) -> Inode:
        d = self._dir(dir_ino)
        self._check(d.inode, creds, X_OK)
        child = d.children.get(name)
        if child is None:
            raise NotFound(name)
        return self.node(child).inode

    def mkdir(self, creds, dir_ino: int, name: str, mode: int,
              now: float) -> Inode:
        d = self._dir(dir_ino)
        self._check(d.inode, creds, W_OK | X_OK)
        if name in d.children:
            raise AlreadyExists(name)
        ino = self.alloc.new()
        inode = Inode(ino=ino, ftype=FileType.DIRECTORY,
                      mode=(creds.apply_umask(mode) if creds else mode & 0o777),
                      uid=creds.uid if creds else 0,
                      gid=creds.gid if creds else 0,
                      atime=now, mtime=now, ctime=now)
        self.nodes[ino] = NSNode(inode)
        d.children[name] = ino
        d.inode.nlink += 1
        d.inode.mtime = d.inode.ctime = now
        return inode

    def create(self, creds, dir_ino: int, name: str, flags: OpenFlags,
               mode: int, now: float) -> Tuple[Inode, bool]:
        d = self._dir(dir_ino)
        self._check(d.inode, creds, X_OK)
        existing = d.children.get(name)
        if existing is not None:
            if flags & OpenFlags.O_CREAT and flags & OpenFlags.O_EXCL:
                raise AlreadyExists(name)
            node = self.node(existing)
            if node.inode.is_dir:
                raise IsADirectory(name)
            if flags.wants_read:
                self._check(node.inode, creds, R_OK)
            if flags.wants_write:
                self._check(node.inode, creds, W_OK)
            return node.inode, False
        if not flags & OpenFlags.O_CREAT:
            raise NotFound(name)
        self._check(d.inode, creds, W_OK | X_OK)
        ino = self.alloc.new()
        inode = Inode(ino=ino, ftype=FileType.REGULAR,
                      mode=(creds.apply_umask(mode) if creds else mode & 0o777),
                      uid=creds.uid if creds else 0,
                      gid=creds.gid if creds else 0,
                      atime=now, mtime=now, ctime=now)
        self.nodes[ino] = NSNode(inode)
        d.children[name] = ino
        d.inode.mtime = d.inode.ctime = now
        return inode, True

    def unlink(self, creds, dir_ino: int, name: str, now: float) -> Inode:
        d = self._dir(dir_ino)
        self._check(d.inode, creds, W_OK | X_OK)
        ino = d.children.get(name)
        if ino is None:
            raise NotFound(name)
        node = self.node(ino)
        if node.inode.is_dir:
            raise IsADirectory(name)
        del d.children[name]
        del self.nodes[ino]
        d.inode.mtime = d.inode.ctime = now
        return node.inode

    def rmdir(self, creds, dir_ino: int, name: str, now: float) -> Inode:
        d = self._dir(dir_ino)
        self._check(d.inode, creds, W_OK | X_OK)
        ino = d.children.get(name)
        if ino is None:
            raise NotFound(name)
        node = self.node(ino)
        if not node.inode.is_dir:
            raise NotADirectory(name)
        if node.children:
            raise DirectoryNotEmpty(name)
        del d.children[name]
        del self.nodes[ino]
        d.inode.nlink -= 1
        d.inode.mtime = d.inode.ctime = now
        return node.inode

    def readdir(self, creds, dir_ino: int) -> List[str]:
        d = self._dir(dir_ino)
        self._check(d.inode, creds, R_OK)
        return sorted(d.children)

    def rename(self, creds, sp: int, sname: str, dp: int, dname: str,
               now: float) -> Optional[Inode]:
        """Returns the inode of an overwritten file (for data cleanup)."""
        src_dir = self._dir(sp)
        dst_dir = self._dir(dp)
        self._check(src_dir.inode, creds, W_OK | X_OK)
        self._check(dst_dir.inode, creds, W_OK | X_OK)
        ino = src_dir.children.get(sname)
        if ino is None:
            raise NotFound(sname)
        moving = self.node(ino)
        removed: Optional[Inode] = None
        existing = dst_dir.children.get(dname)
        if existing is not None and existing != ino:
            ex = self.node(existing)
            if ex.inode.is_dir:
                if not moving.inode.is_dir:
                    raise IsADirectory(dname)
                if ex.children:
                    raise DirectoryNotEmpty(dname)
                dst_dir.inode.nlink -= 1
            elif moving.inode.is_dir:
                raise NotADirectory(dname)
            removed = ex.inode
            del self.nodes[existing]
        if existing == ino:
            return None
        del src_dir.children[sname]
        dst_dir.children[dname] = ino
        if moving.inode.is_dir and sp != dp:
            src_dir.inode.nlink -= 1
            dst_dir.inode.nlink += 1
        src_dir.inode.mtime = src_dir.inode.ctime = now
        dst_dir.inode.mtime = dst_dir.inode.ctime = now
        moving.inode.ctime = now
        return removed

    def symlink(self, creds, dir_ino: int, name: str, target: str,
                now: float) -> Inode:
        d = self._dir(dir_ino)
        self._check(d.inode, creds, W_OK | X_OK)
        if name in d.children:
            raise AlreadyExists(name)
        ino = self.alloc.new()
        inode = Inode(ino=ino, ftype=FileType.SYMLINK, mode=0o777,
                      uid=creds.uid if creds else 0,
                      gid=creds.gid if creds else 0, size=len(target),
                      atime=now, mtime=now, ctime=now, symlink_target=target)
        self.nodes[ino] = NSNode(inode)
        d.children[name] = ino
        d.inode.mtime = d.inode.ctime = now
        return inode

    def setattr(self, creds, ino: int, changes: dict, now: float) -> Inode:
        inode = self.node(ino).inode
        if "mode" in changes:
            self._owner(creds, inode)
            inode.mode = changes["mode"] & 0o7777
            if inode.acl is not None:
                inode.acl.apply_chmod(changes["mode"])
            inode.ctime = now
        if "uid" in changes or "gid" in changes:
            new_uid = changes.get("uid", inode.uid)
            new_gid = changes.get("gid", inode.gid)
            if creds is not None and not creds.is_root:
                if new_uid != inode.uid or creds.uid != inode.uid or \
                        not creds.in_group(new_gid):
                    raise NotPermitted(f"ino {ino:x}")
            inode.uid, inode.gid = new_uid, new_gid
            inode.ctime = now
        if "acl" in changes:
            self._owner(creds, inode)
            acl = changes["acl"]
            inode.acl = acl if isinstance(acl, Acl) else Acl.from_dict(acl)
            inode.ctime = now
        if "times" in changes:
            inode.atime, inode.mtime = changes["times"]
            inode.ctime = now
        if "size" in changes:
            self._check(inode, creds, W_OK)
            inode.size = changes["size"]
            inode.mtime = inode.ctime = now
        return inode

    def _owner(self, creds, inode: Inode) -> None:
        if creds is not None and not creds.is_root and creds.uid != inode.uid:
            raise NotPermitted(f"ino {inode.ino:x}")

    def update_size(self, ino: int, size: int, mtime: float) -> None:
        inode = self.node(ino).inode
        if size > inode.size:
            inode.size = size
        inode.mtime = max(inode.mtime, mtime)

    def count_nodes(self) -> int:
        return len(self.nodes)
