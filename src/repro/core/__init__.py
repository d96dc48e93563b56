"""ArkFS core: the paper's primary contribution.

* :mod:`params` — every tunable (lease period, journal interval, cache sizes).
* :mod:`types` — UUID inode numbers, :class:`Inode`, :class:`Dentry`.
* :mod:`prt` — the POSIX-REST Translator (key schema + chunked data path).
* :mod:`lease` — the FCFS directory lease manager.
* :mod:`metatable` — per-directory metadata tables and remote pointers.
* :mod:`journal` — per-directory compound-transaction journaling + 2PC.
* :mod:`cache` — the write-back data object cache with adaptive read-ahead.
* :mod:`filelease` — read/write leases on file data (leader-issued).
* :mod:`datapath` — the open-file read/write/close under those leases,
  shared with the CephFS/MarFS baselines.
* :mod:`client` / :mod:`ops` — the ArkFS client and its leader-side ops;
  :mod:`sharded_client` — the client with :mod:`shards` (splits) enabled.
* :mod:`recovery` — journal replay after client / manager failures.
* :mod:`fs` — cluster assembly (:func:`build_arkfs`).
"""

from .cache import DataObjectCache, ReadAheadState
from .client import ArkFSClient
from .datapath import OpenState
from .filelease import DIRECT, READ, WRITE, FileLeaseGrant, FileLeaseService
from .fs import ArkFSCluster, build_arkfs, mkfs
from .fsck import FsckReport, fsck
from .journal import (
    JournalManager,
    Transaction,
    apply_ops,
    ops_del_dentry,
    ops_del_inode,
    ops_put_dentry,
    ops_put_inode,
)
from .lease import LeaseGrant, LeaseManager, LeaseRedirect, LeaseWait
from .metatable import Metatable, RemoteTable, load_metatable
from .ops import RedirectError
from .params import DEFAULT_PARAMS, ArkFSParams
from .prt import PRT
from .radix import RadixTree
from .recovery import recover_directory, resolve_decision, scan_journal
from .types import Dentry, Inode, InoAllocator, ROOT_INO, ino_hex

__all__ = [
    "ArkFSClient",
    "ArkFSCluster",
    "ArkFSParams",
    "DEFAULT_PARAMS",
    "DIRECT",
    "DataObjectCache",
    "FsckReport",
    "Dentry",
    "FileLeaseGrant",
    "FileLeaseService",
    "Inode",
    "InoAllocator",
    "JournalManager",
    "LeaseGrant",
    "LeaseManager",
    "LeaseRedirect",
    "LeaseWait",
    "Metatable",
    "OpenState",
    "PRT",
    "READ",
    "ROOT_INO",
    "RadixTree",
    "ReadAheadState",
    "RedirectError",
    "RemoteTable",
    "Transaction",
    "WRITE",
    "apply_ops",
    "build_arkfs",
    "fsck",
    "ino_hex",
    "load_metatable",
    "mkfs",
    "ops_del_dentry",
    "ops_del_inode",
    "ops_put_dentry",
    "ops_put_inode",
    "recover_directory",
    "resolve_decision",
    "scan_journal",
]
