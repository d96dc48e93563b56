"""ArkFS on-storage metadata types: inodes and directory entries.

ArkFS uses 128-bit UUIDs as inode numbers (Section III-F); the root
directory's inode number is fixed so every client can start path resolution
without a bootstrap lookup. Both types serialize to compact JSON — the
object values PRT stores under ``i``/``e`` keys.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

from ..posix.acl import Acl
from ..posix.types import FILE_TYPE_OF_CODE, FileType, StatResult

__all__ = ["ROOT_INO", "InoAllocator", "Inode", "Dentry", "ino_hex",
           "compact_json"]

#: ``json.dumps(obj, separators=(",", ":"))``, byte for byte, without
#: building an encoder per call: every object value PRT and the journal
#: store is encoded by it.
compact_json = json.JSONEncoder(separators=(",", ":")).encode

#: Fixed inode number of the root directory (UUID value 1).
ROOT_INO = 1

_INO_BITS = 128


def ino_hex(ino: int) -> str:
    """Canonical fixed-width hex form used inside object keys."""
    return f"{ino:032x}"


class InoAllocator:
    """Deterministic 128-bit UUID allocator (seeded for reproducible runs)."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._seen = {ROOT_INO}

    def new(self) -> int:
        while True:
            ino = self._rng.getrandbits(_INO_BITS)
            if ino not in self._seen and ino != 0:
                self._seen.add(ino)
                return ino


@dataclass
class Inode:
    """An ArkFS inode; stored as the object ``i<uuid>``.

    ``mode`` holds only the nine permission bits (plus setuid/setgid/sticky);
    the file type lives in ``ftype``. ``acl`` is set only when extended
    entries exist.
    """

    ino: int
    ftype: FileType
    mode: int
    uid: int
    gid: int
    size: int = 0
    nlink: int = 1
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    acl: Optional[Acl] = None
    symlink_target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ftype is FileType.DIRECTORY and self.nlink == 1:
            self.nlink = 2  # "." and the parent's entry

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIRECTORY

    @property
    def is_file(self) -> bool:
        return self.ftype is FileType.REGULAR

    @property
    def is_symlink(self) -> bool:
        return self.ftype is FileType.SYMLINK

    def stat(self) -> StatResult:
        mode_bits = self.acl.to_mode_bits() if self.acl else (self.mode & 0o777)
        mode_bits |= self.mode & 0o7000  # keep setuid/setgid/sticky
        return StatResult(
            st_ino=self.ino,
            st_mode=self.ftype.mode_bits | mode_bits,
            st_nlink=self.nlink,
            st_uid=self.uid,
            st_gid=self.gid,
            st_size=self.size,
            st_atime=self.atime,
            st_mtime=self.mtime,
            st_ctime=self.ctime,
        )

    def copy(self) -> "Inode":
        return Inode(
            ino=self.ino, ftype=self.ftype, mode=self.mode, uid=self.uid,
            gid=self.gid, size=self.size, nlink=self.nlink, atime=self.atime,
            mtime=self.mtime, ctime=self.ctime,
            acl=self.acl.copy() if self.acl else None,
            symlink_target=self.symlink_target,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "ino": ino_hex(self.ino),
            "t": self.ftype._value_,
            "mode": self.mode,
            "uid": self.uid,
            "gid": self.gid,
            "size": self.size,
            "nlink": self.nlink,
            "at": self.atime,
            "mt": self.mtime,
            "ct": self.ctime,
        }
        if self.acl is not None:
            d["acl"] = self.acl.to_dict()
        if self.symlink_target is not None:
            d["tgt"] = self.symlink_target
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Inode":
        return cls(
            ino=int(d["ino"], 16),
            ftype=FILE_TYPE_OF_CODE[d["t"]],
            mode=d["mode"],
            uid=d["uid"],
            gid=d["gid"],
            size=d["size"],
            nlink=d["nlink"],
            atime=d["at"],
            mtime=d["mt"],
            ctime=d["ct"],
            acl=Acl.from_dict(d["acl"]) if "acl" in d else None,
            symlink_target=d.get("tgt"),
        )

    def to_bytes(self) -> bytes:
        return compact_json(self.to_dict()).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Inode":
        return cls.from_dict(json.loads(raw))


@dataclass(frozen=True)
class Dentry:
    """A directory entry; stored as the object ``e<dir-uuid>/<name>``."""

    name: str
    ino: int
    ftype: FileType

    def to_dict(self) -> dict:
        return {"n": self.name, "ino": ino_hex(self.ino),
                "t": self.ftype._value_}

    @classmethod
    def from_dict(cls, d: dict) -> "Dentry":
        return cls(name=d["n"], ino=int(d["ino"], 16),
                   ftype=FILE_TYPE_OF_CODE[d["t"]])

    def to_bytes(self) -> bytes:
        return compact_json(self.to_dict()).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Dentry":
        return cls.from_dict(json.loads(raw))
