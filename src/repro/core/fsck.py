"""fsck — offline consistency checker for an ArkFS object layout.

Scans the flat object store and validates the invariants the PRT layout
promises (run it on a *quiesced* file system: journals flushed, caches
written back — e.g. after ``client.sync()`` plus checkpoint drain):

* the root inode exists;
* every dentry references an existing inode of the matching type;
* every inode except the root is referenced by exactly one dentry
  (no orphans, no double links — ArkFS has no hard links);
* directory nlink equals 2 + number of child directories;
* file sizes are consistent with their data objects: no object extends
  past EOF, no data object belongs to a nonexistent inode;
* shard maps are sound: every map belongs to an existing directory, every
  shard-range dentry hashes into its shard's range (the map is a total
  partition), and an *active* map coexists with no parent-range dentries —
  there is exactly one authoritative layout;
* no journal transactions remain (a dirty journal on a quiet system means
  an unrecovered crash);
* leftover 2PC decision records are reported (harmless garbage, but worth
  surfacing).

Besides being a shippable admin tool, the test suite uses it as an oracle:
stress tests end with ``assert fsck(...).clean``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..posix.types import FileType
from ..sim.engine import SimGen
from ..sim.network import Node
from .prt import PRT
from .shards import ShardMap
from .types import Dentry, Inode, ROOT_INO, ino_hex

__all__ = ["FsckReport", "fsck"]


@dataclass
class FsckReport:
    """The checker's findings."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    n_inodes: int = 0
    n_dentries: int = 0
    n_data_objects: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{len(self.errors)} ERRORS"
        lines = [f"fsck: {status} — {self.n_inodes} inodes, "
                 f"{self.n_dentries} dentries, "
                 f"{self.n_data_objects} data objects"]
        lines += [f"  ERROR: {e}" for e in self.errors]
        lines += [f"  warn:  {w}" for w in self.warnings]
        return "\n".join(lines)


def fsck(prt: PRT, src: Optional[Node] = None,
         after_crash: bool = False) -> SimGen:
    """Run the full consistency scan; returns an :class:`FsckReport`.

    ``after_crash=True`` relaxes exactly the checks a crash is *allowed*
    to violate: data objects belonging to no inode, and data past EOF.
    Both are garbage a crashed client legitimately leaves behind (a data
    PUT whose metadata commit never happened, or an interrupted async
    purge) — cleanup fodder, not corruption. Everything the journal/2PC
    machinery promises (namespace integrity, nlink, no leftover journal
    transactions after recovery) stays a hard error.
    """
    report = FsckReport()
    store = prt.store
    keys = yield from store.list("", src=src)

    inodes: Dict[int, Inode] = {}
    dentries: List[tuple] = []         # (dir_ino, Dentry)
    data_owners: Dict[int, List[int]] = {}   # file ino -> [object indices]
    data_sizes: Dict[tuple, int] = {}
    shard_maps: Dict[int, ShardMap] = {}     # parent dir ino -> map
    journal_keys: List[str] = []
    decision_keys: List[str] = []

    for key in keys:
        kind = key[0]
        if kind == "i":
            raw = yield from store.get(key, src=src)
            try:
                inode = Inode.from_bytes(raw)
            except Exception:
                report.errors.append(f"unparseable inode object {key}")
                continue
            if ino_hex(inode.ino) != key[1:]:
                report.errors.append(
                    f"inode object {key} claims ino {inode.ino:x}")
            inodes[inode.ino] = inode
        elif kind == "e":
            dir_hex, _sep, name = key[1:].partition("/")
            raw = yield from store.get(key, src=src)
            try:
                dentry = Dentry.from_bytes(raw)
            except Exception:
                report.errors.append(f"unparseable dentry object {key}")
                continue
            if dentry.name != name:
                report.errors.append(
                    f"dentry key {key} holds name {dentry.name!r}")
            dentries.append((int(dir_hex, 16), dentry))
        elif kind == "d":
            ino_part, _sep, idx = key[1:].partition("/")
            ino = int(ino_part, 16)
            data_owners.setdefault(ino, []).append(int(idx))
            size = yield from store.head(key, src=src)
            data_sizes[(ino, int(idx))] = size
        elif kind == "s":
            raw = yield from store.get(key, src=src)
            try:
                smap = ShardMap.from_bytes(raw)
            except Exception:
                report.errors.append(f"unparseable shard map {key}")
                continue
            if ino_hex(smap.dir_ino) != key[1:]:
                report.errors.append(
                    f"shard map {key} claims dir {smap.dir_ino:x}")
            shard_maps[smap.dir_ino] = smap
        elif kind == "j":
            journal_keys.append(key)
        elif kind == "t":
            decision_keys.append(key)

    report.n_inodes = len(inodes)
    report.n_dentries = len(dentries)
    report.n_data_objects = sum(len(v) for v in data_owners.values())

    # -- shard maps ------------------------------------------------------------
    # A sharded directory's dentries live in its shards' key ranges; for the
    # graph checks below they are attributed back to the parent. There must
    # be exactly one authoritative layout: an *active* map means the parent
    # range is retired (any parent-range dentry is corruption), a
    # *splitting* map means the parent range is authoritative (shard-range
    # copies are mid-migration shadows, ignored for refcounting).
    shard_parent: Dict[int, tuple] = {}      # shard ino -> (parent, map)
    for pino, smap in sorted(shard_maps.items()):
        parent = inodes.get(pino)
        if parent is None:
            report.errors.append(f"shard map for nonexistent dir {pino:x}")
        elif not parent.is_dir:
            report.errors.append(f"shard map under non-directory {pino:x}")
        if not smap.active:
            (report.warnings if after_crash else report.errors).append(
                f"dir {pino:x}: shard map left in state 'splitting'"
                " (interrupted split; parent range authoritative)")
        for r in smap.shards:
            shard_parent[r.ino] = (pino, smap)

    # -- the namespace graph ---------------------------------------------------
    if ROOT_INO not in inodes:
        report.errors.append("root inode missing")
    refcount: Dict[int, int] = {}
    subdir_count: Dict[int, int] = {}
    for dir_ino, dentry in dentries:
        sp = shard_parent.get(dir_ino)
        if sp is not None:
            pino, smap = sp
            if smap.route(dentry.name) != dir_ino:
                report.errors.append(
                    f"dentry {dentry.name!r} in the wrong shard of dir "
                    f"{pino:x} (total hash partition violated)")
            if not smap.active:
                continue  # mid-split shadow copy; the parent range counts
            dir_ino = pino
        else:
            smap = shard_maps.get(dir_ino)
            if smap is not None and smap.active:
                report.errors.append(
                    f"dir {dir_ino:x}: parent-range dentry "
                    f"{dentry.name!r} survived an active split")
                continue  # shard copy is the authoritative reference
        if dir_ino not in inodes:
            report.errors.append(
                f"dentry {dentry.name!r} under nonexistent dir "
                f"{dir_ino:x}")
        elif not inodes[dir_ino].is_dir:
            report.errors.append(
                f"dentry {dentry.name!r} under non-directory {dir_ino:x}")
        child = inodes.get(dentry.ino)
        if child is None:
            report.errors.append(
                f"dentry {dentry.name!r} points to missing inode "
                f"{dentry.ino:x}")
            continue
        if child.ftype is not dentry.ftype:
            report.errors.append(
                f"dentry {dentry.name!r} type {dentry.ftype.value} != "
                f"inode type {child.ftype.value}")
        refcount[dentry.ino] = refcount.get(dentry.ino, 0) + 1
        if dentry.ftype is FileType.DIRECTORY:
            subdir_count[dir_ino] = subdir_count.get(dir_ino, 0) + 1

    for ino, inode in inodes.items():
        refs = refcount.get(ino, 0)
        if ino == ROOT_INO:
            if refs:
                report.errors.append("the root has a dentry pointing at it")
            continue
        if refs == 0:
            report.errors.append(
                f"orphan inode {ino:x} ({inode.ftype.value})")
        elif refs > 1:
            report.errors.append(
                f"inode {ino:x} referenced by {refs} dentries "
                f"(hard links are unsupported)")

    # -- directory link counts -----------------------------------------------------
    for ino, inode in inodes.items():
        if inode.is_dir:
            smap = shard_maps.get(ino)
            if smap is not None and smap.active:
                # Sharded directories freeze nlink at the split value (a
                # documented relaxation: shards never journal the parent
                # inode, so subdirectory churn stops updating it).
                continue
            expected = 2 + subdir_count.get(ino, 0)
            if inode.nlink != expected:
                report.errors.append(
                    f"dir {ino:x} nlink={inode.nlink}, expected {expected}")

    # -- data objects -----------------------------------------------------------------
    # After a crash, unreferenced/past-EOF data objects are expected garbage
    # (data lands before the metadata commit); report them as warnings so
    # the crash-consistency checker can still demand `clean`.
    data_garbage = (report.warnings.append if after_crash
                    else report.errors.append)
    osz = prt.data_object_size
    for ino, indices in data_owners.items():
        inode = inodes.get(ino)
        if inode is None:
            data_garbage(f"data objects for nonexistent inode {ino:x}")
            continue
        if not inode.is_file:
            report.errors.append(f"data objects under non-file {ino:x}")
            continue
        for idx in indices:
            start = idx * osz
            length = data_sizes[(ino, idx)]
            if start >= inode.size and length > 0:
                data_garbage(
                    f"file {ino:x}: data object {idx} lies past EOF "
                    f"(size {inode.size})")
            elif start + length > inode.size:
                data_garbage(
                    f"file {ino:x}: data object {idx} extends past EOF")

    # -- journals & decisions --------------------------------------------------------------
    for key in journal_keys:
        report.errors.append(f"journal transaction left behind: {key}")
    for key in decision_keys:
        report.warnings.append(f"stale 2PC decision record: {key}")

    # -- tiered backend: staged-not-drained objects ----------------------------------------
    # Hot-only state is volatile by contract (durable only once drained to
    # the cold tier); surface it so operators see what a crash would lose.
    # Never an error: nothing above fsync'd data ever stays hot-only.
    dirty_keys = getattr(prt.store, "tier_dirty_keys", None)
    if dirty_keys is not None:
        for key in dirty_keys():
            report.warnings.append(
                f"staged object not yet drained to cold tier: {key}")

    return report
