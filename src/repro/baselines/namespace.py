"""A centralized hierarchical namespace (the state an MDS cluster manages).

This is the functional core shared by the CephFS and MarFS baselines: a
plain in-memory tree of inodes mutated synchronously. All *timing* (RPC
round trips, MDS service, lock contention) is charged by the MDS model in
:mod:`repro.baselines.mds`; this module is pure state. Its POSIX checks are
ArkFS's directory-leader rules, :mod:`repro.core.inode_rules`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..posix.errors import (
    AlreadyExists,
    DirectoryNotEmpty,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotFound,
    TooManySymlinks,
)
from ..posix.types import Credentials, FileType, OpenFlags, R_OK, W_OK, X_OK
from ..core.inode_rules import (SYMLINK_MAX_FOLLOW, apply_setattr, new_inode,
                                require_access, require_open,
                                require_overwrite)
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
        if _depth > SYMLINK_MAX_FOLLOW:
            raise TooManySymlinks("/".join(parts))
        cur = base
        for i, name in enumerate(parts):
            d = self._dir(cur)
            require_access(d.inode, creds, X_OK)
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
        require_access(d.inode, creds, X_OK)
        child = d.children.get(name)
        if child is None:
            raise NotFound(name)
        return self.node(child).inode

    def _add(self, creds, d: NSNode, name: str, ftype: FileType, mode: int,
             now: float, target: Optional[str] = None) -> Inode:
        """mkdir/create/symlink's common half: W and X on ``d``, EEXIST,
        then a new inode linked as ``name``, and ``d`` stamped changed."""
        require_access(d.inode, creds, W_OK | X_OK)
        if name in d.children:
            raise AlreadyExists(name)
        ino = self.alloc.new()
        inode = new_inode(ino, ftype, creds, mode, now, target)
        self.nodes[ino] = NSNode(inode)
        d.children[name] = ino
        if ftype is FileType.DIRECTORY:
            d.inode.nlink += 1
        d.inode.mtime = d.inode.ctime = now
        return inode

    def mkdir(self, creds, dir_ino: int, name: str, mode: int,
              now: float) -> Inode:
        return self._add(creds, self._dir(dir_ino), name, FileType.DIRECTORY,
                         mode, now)

    def create(self, creds, dir_ino: int, name: str, flags: OpenFlags,
               mode: int, now: float) -> Tuple[Inode, bool]:
        d = self._dir(dir_ino)
        require_access(d.inode, creds, X_OK)
        existing = d.children.get(name)
        if existing is not None:
            inode = self.node(existing).inode
            require_open(inode.ftype, inode, creds, flags, name)
            return inode, False
        if not flags & OpenFlags.O_CREAT:
            raise NotFound(name)
        return self._add(creds, d, name, FileType.REGULAR, mode, now), True

    def unlink(self, creds, dir_ino: int, name: str, now: float) -> Inode:
        d = self._dir(dir_ino)
        require_access(d.inode, creds, W_OK | X_OK)
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
        require_access(d.inode, creds, W_OK | X_OK)
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
        require_access(d.inode, creds, R_OK)
        return sorted(d.children)

    def rename(self, creds, sp: int, sname: str, dp: int, dname: str,
               now: float) -> Optional[Inode]:
        """Returns the inode of an overwritten file (for data cleanup)."""
        src_dir = self._dir(sp)
        dst_dir = self._dir(dp)
        require_access(src_dir.inode, creds, W_OK | X_OK)
        require_access(dst_dir.inode, creds, W_OK | X_OK)
        ino = src_dir.children.get(sname)
        if ino is None:
            raise NotFound(sname)
        moving = self.node(ino)
        removed: Optional[Inode] = None
        existing = dst_dir.children.get(dname)
        if existing is not None and existing != ino:
            ex = self.node(existing)
            require_overwrite(moving.inode.ftype, ex.inode.ftype, dname)
            if ex.inode.is_dir:
                if ex.children:
                    raise DirectoryNotEmpty(dname)
                dst_dir.inode.nlink -= 1
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
        return self._add(creds, self._dir(dir_ino), name, FileType.SYMLINK,
                         0, now, target)

    def setattr(self, creds, ino: int, changes: dict,
                now: float) -> Tuple[Inode, int]:
        """Returns the inode and its size before (for data cleanup)."""
        inode = self.node(ino).inode
        return inode, apply_setattr(inode, creds, changes, now)

    def update_size(self, ino: int, size: int, mtime: float) -> None:
        inode = self.node(ino).inode
        if size > inode.size:
            inode.size = size
        inode.mtime = max(inode.mtime, mtime)

    def count_nodes(self) -> int:
        return len(self.nodes)
