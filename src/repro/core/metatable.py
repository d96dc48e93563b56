"""Per-directory metadata tables (Section III-C).

When a client wins a directory's lease it loads the directory inode, the
dentries, and the child *file* inodes from object storage into a metatable.
While the lease is valid, every metadata operation on that directory —
lookup, permission check, create, unlink, stat — is a local in-memory
operation. A *remote metatable* is just a pointer to the directory's
current leader, used to forward requests (Fig. 3(c)).

Child directories' inodes are **not** part of the parent's metatable: each
directory's inode is authoritative in its own metatable (under its own
lease), which is what lets metadata management partition cleanly by
directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..posix.errors import NotFound
from ..posix.types import FileType
from ..sim.engine import SimGen
from ..sim.network import Node
from .prt import PRT
from .types import Dentry, Inode

__all__ = ["Metatable", "RemoteTable", "load_metatable"]


@dataclass
class Metatable:
    """The leader-side in-memory image of one directory."""

    dir_inode: Inode
    dentries: Dict[str, Dentry] = field(default_factory=dict)
    inodes: Dict[int, Inode] = field(default_factory=dict)  # child files only
    lease_expires: float = 0.0
    epoch: int = 0
    last_used: float = 0.0  # drives lease extension vs clean release
    mgr_epoch: int = 0      # range-authority epoch of the grant (always >= 1)
    # Shard tables: ``auth_ino`` is the ino whose e<>/j<> key ranges and
    # lease this table is authoritative for; ``dir_inode`` is then a copy of
    # the *parent* directory's inode (shards have no inode object of their
    # own). ``None`` means the table is an ordinary directory's.
    auth_ino: Optional[int] = None

    @property
    def dir_ino(self) -> int:
        return self.dir_inode.ino

    @property
    def is_shard(self) -> bool:
        return self.auth_ino is not None

    # -- lookups ----------------------------------------------------------------

    def lookup(self, name: str) -> Dentry:
        try:
            return self.dentries[name]
        except KeyError:
            raise NotFound(name) from None

    def child_inode(self, ino: int) -> Inode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise NotFound(f"inode {ino:x}") from None

    def has(self, name: str) -> bool:
        return name in self.dentries

    def names(self) -> List[str]:
        return sorted(self.dentries)

    @property
    def is_empty(self) -> bool:
        return not self.dentries

    # -- mutations (callers journal these) -----------------------------------------

    def add(self, dentry: Dentry, inode: Optional[Inode]) -> None:
        """Insert an entry; ``inode`` is stored for regular files/symlinks
        (directories keep their inode in their own metatable)."""
        self.dentries[dentry.name] = dentry
        if inode is not None:
            self.inodes[inode.ino] = inode

    def remove(self, name: str) -> Dentry:
        d = self.dentries.pop(name, None)
        if d is None:
            raise NotFound(name)
        self.inodes.pop(d.ino, None)
        return d


class RemoteTable:
    """A remote metatable: points at the directory's current leader."""

    __slots__ = ("dir_ino", "leader", "expires_at")

    def __init__(self, dir_ino: int, leader: str, expires_at: float):
        self.dir_ino = dir_ino
        self.leader = leader
        self.expires_at = expires_at

    def valid(self, now: float) -> bool:
        return now < self.expires_at


def load_metatable(prt: PRT, dir_inode: Inode, src: Optional[Node],
                   lease_expires: float, epoch: int,
                   list_ino: Optional[int] = None,
                   mgr_epoch: int = 0) -> SimGen:
    """Pull a directory's metadata from object storage (lease-grant path).

    Loads dentries via a prefix LIST, then the inodes of child files and
    symlinks. Directories contribute only their dentry. ``list_ino`` loads
    a *shard* table: dentries come from the shard's key range while
    ``dir_inode`` is the parent directory's inode.
    """
    mt = Metatable(dir_inode=dir_inode.copy(), lease_expires=lease_expires,
                   epoch=epoch, mgr_epoch=mgr_epoch, auth_ino=list_ino)
    dentries = yield from prt.list_dentries(
        list_ino if list_ino is not None else dir_inode.ino, src=src)
    for d in dentries:
        mt.dentries[d.name] = d
        if d.ftype is not FileType.DIRECTORY:
            inode = yield from prt.get_inode(d.ino, src=src)
            mt.inodes[d.ino] = inode
    return mt
