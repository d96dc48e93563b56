"""ArkFS core: the paper's primary contribution.

* :mod:`params` — every tunable (lease period, journal interval, cache sizes).
* :mod:`types` — UUID inode numbers, :class:`Inode`, :class:`Dentry`.
* :mod:`prt` — the POSIX-REST Translator (key schema + chunked data path).
* :mod:`lease` — the FCFS directory lease manager.
* :mod:`metatable` — per-directory metadata tables and remote pointers.
* :mod:`journal` — per-directory compound-transaction journaling + 2PC.
* :mod:`cache` — the write-back data object cache with adaptive read-ahead.
* :mod:`pack` — packed small-file containers: the writer, and the cache,
  PRT and client layers :func:`build_arkfs` picks once.
* :mod:`filelease` — read/write leases on file data (leader-issued).
* :mod:`qos` — multi-tenant QoS: token buckets, WFQ, admission control.
* :mod:`client` / :mod:`ops` — the ArkFS client and its leader-side ops;
  :mod:`sharded_client` — the client with :mod:`shards` (splits) enabled.
* :mod:`recovery` — journal replay after client / manager failures.
* :mod:`fs` — cluster assembly (:func:`build_arkfs`).
"""

from .cache import DataObjectCache, ReadAheadState
from .client import ArkFSClient, OpenState
from .filelease import DIRECT, READ, WRITE, FileLeaseGrant, FileLeaseService
from .fs import ArkFSCluster, build_arkfs, mkfs
from .fsck import FsckReport, fsck
from .journal import (
    JournalManager,
    Transaction,
    apply_ops,
    ops_clear_extents,
    ops_del_dentry,
    ops_del_extents,
    ops_del_inode,
    ops_put_dentry,
    ops_put_inode,
    ops_set_extents,
)
from .lease import LeaseGrant, LeaseManager, LeaseRedirect, LeaseWait
from .metatable import Metatable, RemoteTable, load_metatable
from .ops import RedirectError
from .pack import PackClient, PackedCache, PackedPRT, PackWriter
from .params import DEFAULT_PARAMS, ArkFSParams
from .prt import PRT
from .qos import QosManager, TenantBusy, TokenBucket, WFQResource
from .radix import RadixTree
from .recovery import recover_directory, resolve_decision, scan_journal
from .types import Dentry, Inode, InoAllocator, PackExtent, ROOT_INO, ino_hex

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
    "PackClient",
    "PackExtent",
    "PackWriter",
    "PackedCache",
    "PackedPRT",
    "QosManager",
    "READ",
    "ROOT_INO",
    "RadixTree",
    "ReadAheadState",
    "RedirectError",
    "RemoteTable",
    "TenantBusy",
    "TokenBucket",
    "Transaction",
    "WFQResource",
    "WRITE",
    "apply_ops",
    "build_arkfs",
    "fsck",
    "ino_hex",
    "load_metatable",
    "mkfs",
    "ops_clear_extents",
    "ops_del_dentry",
    "ops_del_extents",
    "ops_del_inode",
    "ops_put_dentry",
    "ops_put_inode",
    "ops_set_extents",
    "recover_directory",
    "resolve_decision",
    "scan_journal",
]
