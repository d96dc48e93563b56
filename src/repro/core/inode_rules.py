"""POSIX inode and path rules: the one copy ArkFS's directory leader and
client walk and the CephFS/MarFS namespace all run.

Pure functions over an :class:`~repro.core.types.Inode` or a stack of
resolved directory inos: no ``yield``, no charge, no journal record. Where
the metadata work runs (a leader's metatable, an MDS's tree, a client's
walk) and what it costs stays with the caller. A
``creds`` of None is an internal caller (recovery, 2PC phase 2), which
every check lets through.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..posix.acl import Acl, check_perm
from ..posix.errors import (
    AlreadyExists,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotPermitted,
    PermissionDenied,
    TooManySymlinks,
)
from ..posix.types import Credentials, FileType, OpenFlags, R_OK, W_OK
from .types import Inode, ROOT_INO

__all__ = ["SYMLINK_MAX_FOLLOW", "FOLLOWS_FINAL", "follow_symlink", "up",
           "require_access", "permits", "new_inode", "require_open",
           "require_overwrite", "apply_setattr"]

#: Symlinks one resolution follows before ELOOP, intermediate and final
#: alike, as in Linux.
SYMLINK_MAX_FOLLOW = 40

#: The verbs that act on a final symlink's target. The others (lstat,
#: readlink, unlink, rmdir, rename, mkdir, symlink) act on the link.
FOLLOWS_FINAL = frozenset({"open", "stat", "access", "getfacl", "chmod",
                           "chown", "utimens", "setfacl", "truncate"})


def follow_symlink(target: str, rest: List[str], stack: List[int],
                   links: int) -> Tuple[List[str], List[int]]:
    """The ``links``-th symlink of a resolution, to ``target``, with
    ``rest`` after it: the components left and the directory stack they
    start from. ELOOP past ``SYMLINK_MAX_FOLLOW``. An absolute target
    starts at ``[ROOT_INO]``, a relative one at ``stack`` (the link's
    directories); ``""`` and ``.`` are dropped, ``..`` is kept for
    :func:`up`: never resolved lexically."""
    if links > SYMLINK_MAX_FOLLOW:
        raise TooManySymlinks(target)
    parts = [c for c in target.split("/") if c and c != "."]
    return parts + rest, [ROOT_INO] if target[:1] == "/" else stack


def up(stack: List[int]) -> int:
    """``..``: pop ``stack`` and return its new top; the root's is the
    root."""
    if len(stack) > 1:
        stack.pop()
    return stack[-1]


def require_access(inode: Inode, creds: Optional[Credentials],
                   want: int) -> None:
    """EACCES unless ``creds`` may access ``inode`` for ``want``."""
    if creds is not None and not check_perm(
        inode.acl, inode.mode, inode.uid, inode.gid, creds, want
    ):
        raise PermissionDenied(f"ino {inode.ino:x}")


def permits(inode: Inode, creds: Optional[Credentials], want: int) -> bool:
    """access(2)'s answer: :func:`require_access` as a yes or a no."""
    try:
        require_access(inode, creds, want)
    except PermissionDenied:
        return False
    return True


def new_inode(ino: int, ftype: FileType, creds: Optional[Credentials],
              mode: int, now: float, target: Optional[str] = None) -> Inode:
    """A created inode: owned by ``creds``, ``mode`` under their umask, all
    three times ``now``. A symlink (``target`` given) is mode 0o777."""
    if target is not None:
        mode = 0o777
    elif creds is not None:
        mode = creds.apply_umask(mode)
    else:
        mode &= 0o777
    return Inode(ino=ino, ftype=ftype, mode=mode,
                 uid=creds.uid if creds else 0,
                 gid=creds.gid if creds else 0,
                 size=len(target) if target else 0,
                 atime=now, mtime=now, ctime=now, symlink_target=target)


def require_open(ftype: FileType, inode: Optional[Inode],
                 creds: Optional[Credentials], flags: int, name: str) -> None:
    """Open of an existing entry: EEXIST under O_CREAT|O_EXCL, EISDIR on a
    directory (``inode`` may be None for one), then the permissions the
    access mode of ``flags`` (a plain ``int``) needs. A symlink passes
    unchecked: the open of its target checks the target."""
    if flags & OpenFlags.O_EXCL and flags & OpenFlags.O_CREAT:
        raise AlreadyExists(name)
    if ftype is FileType.DIRECTORY:
        raise IsADirectory(name)
    if ftype is FileType.SYMLINK:
        return
    if not flags & 1:                   # OpenFlags.wants_read
        require_access(inode, creds, R_OK)
    if 0 < flags & 0o3 < 3:             # OpenFlags.wants_write
        require_access(inode, creds, W_OK)


def require_overwrite(src_ftype: FileType, dst_ftype: FileType,
                      dst_name: str) -> None:
    """rename's type rules for replacing an entry: only a directory may
    replace a directory, and a directory only a directory. Whether a
    replaced directory is empty is the caller's check."""
    if dst_ftype is FileType.DIRECTORY:
        if src_ftype is not FileType.DIRECTORY:
            raise IsADirectory(dst_name)
    elif src_ftype is FileType.DIRECTORY:
        raise NotADirectory(dst_name)


def _require_owner(inode: Inode, creds: Optional[Credentials]) -> None:
    if creds is not None and not creds.is_root and creds.uid != inode.uid:
        raise NotPermitted(f"inode {inode.ino:x}", "not the owner")


def apply_setattr(inode: Inode, creds: Optional[Credentials],
                  changes: Dict[str, Any], now: float) -> int:
    """chmod (``mode``; an ACL's mask follows), chown (``uid``/``gid``),
    setfacl (``acl``, an :class:`Acl` or its dict), utimens (``times``) and
    truncate (``size``), each after its POSIX check. Returns the size
    before the change: the caller drops the data past a smaller one."""
    old_size = inode.size
    if "mode" in changes:
        _require_owner(inode, creds)
        inode.mode = changes["mode"] & 0o7777
        if inode.acl is not None:
            inode.acl.apply_chmod(changes["mode"])
        inode.ctime = now
    if "uid" in changes or "gid" in changes:
        new_uid = changes.get("uid", inode.uid)
        new_gid = changes.get("gid", inode.gid)
        if creds is not None and not creds.is_root:
            # Non-root may only change the group, to a group it is in.
            if new_uid != inode.uid or creds.uid != inode.uid:
                raise NotPermitted(detail="chown requires root")
            if not creds.in_group(new_gid):
                raise NotPermitted(detail="not a member of the target group")
        inode.uid, inode.gid = new_uid, new_gid
        inode.ctime = now
    if "acl" in changes:
        _require_owner(inode, creds)
        acl = changes["acl"]
        inode.acl = Acl.from_dict(acl) if isinstance(acl, dict) else acl
        inode.ctime = now
    if "times" in changes:
        if creds is not None and not creds.is_root and creds.uid != inode.uid:
            require_access(inode, creds, W_OK)
        inode.atime, inode.mtime = changes["times"]
        inode.ctime = now
    if "size" in changes:
        require_access(inode, creds, W_OK)
        if inode.ftype is not FileType.REGULAR:
            raise IsADirectory(detail="truncate on non-file")
        new_size = changes["size"]
        if new_size < 0:
            raise InvalidArgument(detail="negative size")
        inode.size = new_size
        inode.mtime = inode.ctime = now
    return old_size
