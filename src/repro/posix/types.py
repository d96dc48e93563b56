"""Shared POSIX-facing types: file kinds, open flags, stat results, credentials."""

from __future__ import annotations

import enum
import stat as statmod
from dataclasses import dataclass, field
from typing import Tuple

__all__ = [
    "FileType",
    "FILE_TYPE_OF_CODE",
    "OpenFlags",
    "StatFSResult",
    "StatResult",
    "Credentials",
    "ROOT_CREDS",
    "R_OK",
    "W_OK",
    "X_OK",
    "F_OK",
]

# access(2) probe bits
R_OK, W_OK, X_OK, F_OK = 4, 2, 1, 0


class FileType(enum.Enum):
    """The file kinds ArkFS supports (no devices/FIFOs — archival storage).

    A member's value is its on-storage code (``"reg"``); ``mode_bits`` is
    its ``stat.S_IF*`` type. Hot paths read both as plain attributes
    (``_value_``, ``mode_bits``) and decode through
    :data:`FILE_TYPE_OF_CODE`: ``.value``, ``FileType(code)`` and hashing a
    member each run Python code in ``enum.py``.
    """

    REGULAR = ("reg", statmod.S_IFREG)
    DIRECTORY = ("dir", statmod.S_IFDIR)
    SYMLINK = ("sym", statmod.S_IFLNK)

    def __new__(cls, code: str, mode_bits: int) -> "FileType":
        member = object.__new__(cls)
        member._value_ = code
        member.mode_bits = mode_bits
        return member


#: On-storage code -> member: ``FileType(code)`` as one dict lookup.
FILE_TYPE_OF_CODE = {ftype._value_: ftype for ftype in FileType}


class OpenFlags(enum.IntFlag):
    """Subset of open(2) flags the archiving workloads exercise.

    ``&`` is ``int``'s: ``flags & OpenFlags.O_CREAT`` is a plain ``int``
    with the truth and value a flag test needs, and builds no member in
    ``enum.py``. ``|`` still returns an ``OpenFlags``.
    """

    O_RDONLY = 0
    O_WRONLY = 1
    O_RDWR = 2
    O_CREAT = 0o100
    O_EXCL = 0o200
    O_TRUNC = 0o1000
    O_APPEND = 0o2000

    __and__ = int.__and__
    __rand__ = int.__rand__

    @property
    def accmode(self) -> "OpenFlags":
        return OpenFlags(self & 0o3)

    # Access mode 3 is neither readable nor writable.
    @property
    def wants_read(self) -> bool:
        return not self & 1             # access mode 0 (RDONLY) or 2 (RDWR)

    @property
    def wants_write(self) -> bool:
        return 0 < self & 0o3 < 3       # access mode 1 (WRONLY) or 2 (RDWR)


@dataclass(frozen=True)
class StatResult:
    """What stat(2) reports; field names mirror ``os.stat_result``."""

    st_ino: int
    st_mode: int          # type bits | permission bits
    st_nlink: int
    st_uid: int
    st_gid: int
    st_size: int
    st_atime: float
    st_mtime: float
    st_ctime: float

    @property
    def is_dir(self) -> bool:
        return statmod.S_ISDIR(self.st_mode)

    @property
    def is_file(self) -> bool:
        return statmod.S_ISREG(self.st_mode)

    @property
    def is_symlink(self) -> bool:
        return statmod.S_ISLNK(self.st_mode)

    @property
    def perm_bits(self) -> int:
        return statmod.S_IMODE(self.st_mode)


@dataclass(frozen=True)
class StatFSResult:
    """What statfs(2) reports (block counts in ``f_bsize`` units)."""

    f_bsize: int
    f_blocks: int     # total blocks
    f_bfree: int      # free blocks
    f_files: int      # objects/inodes in use

    @property
    def total_bytes(self) -> int:
        return self.f_bsize * self.f_blocks

    @property
    def free_bytes(self) -> int:
        return self.f_bsize * self.f_bfree

    @property
    def used_bytes(self) -> int:
        return self.total_bytes - self.free_bytes


@dataclass(frozen=True)
class Credentials:
    """The identity a file-system operation runs as."""

    uid: int
    gid: int
    groups: Tuple[int, ...] = field(default_factory=tuple)
    umask: int = 0o022

    @property
    def is_root(self) -> bool:
        return self.uid == 0

    def in_group(self, gid: int) -> bool:
        return gid == self.gid or gid in self.groups

    def apply_umask(self, mode: int) -> int:
        return mode & ~self.umask & 0o7777


#: The administrator identity the paper's background archiving daemons run as.
ROOT_CREDS = Credentials(uid=0, gid=0)
