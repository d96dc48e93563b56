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
)
from ..posix.types import Credentials, FileType, OpenFlags, R_OK, W_OK, X_OK
from ..core.inode_rules import (apply_setattr, follow_symlink, new_inode,
                                require_access, require_open,
                                require_overwrite, up)
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

    def walk(self, creds: Optional[Credentials], parts: List[str],
             follow_final: bool = True) -> Tuple[List[int], Optional[str],
                                                  Optional[int]]:
        """``parts`` resolved from the root: the stack of directories down
        to the final name's, that name (None if ``parts`` names a directory
        by itself: no name, or a final ``..``) and its ino (None if there is
        no such entry). Symlinks on the way are followed, a final one if
        ``follow_final``; ``..`` pops the stack (the path rule)."""
        stack, links, i = [ROOT_INO], 0, 0
        while i < len(parts):
            name = parts[i]
            i += 1
            if name == "..":
                up(stack)
                continue
            d = self._dir(stack[-1])
            require_access(d.inode, creds, X_OK)
            ino = d.children.get(name)
            final = i == len(parts)
            if ino is None:
                if final:
                    return stack, name, None
                raise NotFound(name)
            inode = self.nodes[ino].inode
            if inode.is_symlink and (follow_final or not final):
                links += 1
                parts, stack = follow_symlink(inode.symlink_target, parts[i:],
                                              stack, links)
                i = 0
            elif final:
                return stack, name, ino
            else:
                self._dir(ino)
                stack.append(ino)
        return stack, None, stack[-1]

    def resolve(self, creds: Optional[Credentials], parts: List[str],
                follow_final: bool = True) -> int:
        """The ino ``parts`` names (:meth:`walk`); ENOENT if none."""
        _, name, ino = self.walk(creds, parts, follow_final)
        if ino is None:
            raise NotFound(name)
        return ino

    def resolve_parent(self, creds, parts: List[str]) -> Tuple[int, str]:
        """The directory of ``parts``' final name (not followed), and it."""
        if not parts:
            raise InvalidArgument("/", "needs a parent")
        stack, name, _ = self.walk(creds, parts, follow_final=False)
        return stack[-1], name

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
