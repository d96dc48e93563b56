"""Leader-side metadata operations.

These ``_op_*`` coroutines implement every metadata operation a *directory
leader* performs on a directory it holds the lease for — both for its own
applications and on behalf of other clients that were redirected to it
(Fig. 3(b) steps 3–5). They are mixed into :class:`~repro.core.client.
ArkFSClient`; the dispatch path (local call vs RPC) lives in the client.

Every operation:

* re-validates leadership first (raising :class:`RedirectError` if the lease
  moved, so callers can retry at the new leader),
* performs POSIX permission checks against the metatable in local memory
  (the rules in :mod:`repro.core.inode_rules`, shared with the CephFS/MarFS
  namespace),
* applies the mutation to the metatable and records journal ops in the
  directory's running compound transaction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..posix.errors import (
    AlreadyExists,
    DirectoryNotEmpty,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotFound,
)
from ..posix.types import Credentials, FileType, OpenFlags, R_OK, W_OK, X_OK
from ..sim.engine import SimGen
from ..sim.network import NodeDown
from .filelease import FileLeaseGrant
from .inode_rules import (apply_setattr, new_inode, require_access,
                          require_open, require_overwrite)
from .journal import (
    ops_del_dentry,
    ops_del_inode,
    ops_put_dentry,
    ops_put_inode,
)
from .types import Dentry, Inode

__all__ = ["RedirectError", "LeaderOps"]


class RedirectError(Exception):
    """This node is not (or no longer) the directory's leader."""

    def __init__(self, dir_ino: int, leader: Optional[str]):
        super().__init__(f"dir {dir_ino:x} led by {leader}")
        self.dir_ino = dir_ino
        self.leader = leader


def _require(ok: bool, exc_cls, path: str = "", detail: str = "") -> None:
    if not ok:
        raise exc_cls(path, detail)


class LeaderOps:
    """Mixin: leader-side operation handlers for ArkFSClient."""

    # The client provides: sim, node, prt, params, metatables, journal,
    # fleases, alloc, _ensure_leader(), _charge_md_op(), _pending_names,
    # cache, name, and (from the data path) _truncate_file_data().

    # -- shared helpers ---------------------------------------------------------

    def _wait_name_free(self, dir_ino: int, name: str) -> SimGen:
        """Block while a 2PC rename holds this name prepared."""
        while (dir_ino, name) in self._pending_names:
            yield self.sim.timeout(0.001)

    def _maybe_split(self, mt) -> None:  # growth hook: ShardedClient
        pass

    def _touch_dir(self, mt) -> None:
        # Shard tables hold a *copy* of the parent inode: mutating or
        # journaling it from every shard would make the parent inode a
        # multi-writer object. Sharded directories freeze mtime/ctime/nlink
        # at their split value (a documented relaxation; only the home
        # shard, via routed setattr, writes the parent inode).
        if mt.is_shard:
            return
        now = self.sim.now
        mt.dir_inode.mtime = now
        mt.dir_inode.ctime = now

    def _journal_dir_change(self, mt, dir_ino: int, ops: List[Dict[str, Any]],
                            after=(), nlink: int = 0) -> SimGen:
        """The epilogue of every op that adds or removes an entry: stamp
        the directory changed, journal ``ops`` + the directory inode +
        ``after`` as one record, and hand back the journal-CPU charge for
        the caller to ``yield from``.

        ``dir_ino`` is the authority whose journal takes the record — for a
        shard table that is the shard, never the parent ``mt.dir_ino``
        names — and a shard table's copy of the parent inode is neither
        changed nor journaled (see ``_touch_dir``). ``nlink`` is the
        link-count change of mkdir/rmdir.
        """
        if not mt.is_shard:
            inode = mt.dir_inode
            inode.nlink += nlink
            # mkdir/rmdir have always journaled the inode as it stood
            # *before* the stamp; the ledger's byte counts pin that.
            unstamped = ops_put_inode(inode) if nlink else None
            inode.mtime = inode.ctime = self.sim.now
            ops.append(unstamped or ops_put_inode(inode))
        ops.extend(after)
        self.journal.record(dir_ino, *ops)
        return self._charge_journal(len(ops), dir_ino)

    # -- lookup / getattr -----------------------------------------------------------

    def _op_lookup(self, creds: Credentials, dir_ino: int, name: str,
                   requester: str = "") -> SimGen:
        """Resolve one name: returns (dentry dict, dir-inode dict).

        The dir-inode payload carries the permission information that the
        permission-caching mode caches at the requester (Section III-C).
        """
        mt = yield from self._ensure_leader(dir_ino)
        yield from self.node.work(self.params.lookup_cpu)
        require_access(mt.dir_inode, creds, X_OK)
        yield from self._wait_name_free(dir_ino, name)
        dentry = mt.lookup(name)
        return dentry.to_dict(), mt.dir_inode.to_dict()

    def _op_getattr_child(self, creds: Credentials, dir_ino: int, name: str,
                          requester: str = "") -> SimGen:
        """stat of a non-directory child (its inode lives in this metatable)."""
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, X_OK)
        dentry = mt.lookup(name)
        if dentry.ftype is FileType.DIRECTORY:
            # Directories are stat'ed at their own leader.
            return {"redirect_dir": dentry.ino}
        inode = mt.child_inode(dentry.ino)
        return inode.to_dict()

    def _op_getattr_dir(self, creds: Credentials, dir_ino: int,
                        requester: str = "") -> SimGen:
        """stat of the directory itself (authoritative in its own metatable)."""
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        return mt.dir_inode.to_dict()

    def _op_readdir(self, creds: Credentials, dir_ino: int,
                    requester: str = "") -> SimGen:
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, R_OK)
        return mt.names()

    # -- open / create -------------------------------------------------------------------

    def _op_open(self, creds: Credentials, dir_ino: int, name: str,
                 flags: int, mode: int, requester: str = "") -> SimGen:
        """OPEN/CREATE of a regular file in a directory this client leads.

        Returns an info dict: the file inode payload plus the initial read
        lease (every opener starts with a read lease, Section III-D).
        ``flags`` is the plain ``int`` of an ``OpenFlags``, tested as such.
        """
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, X_OK)
        yield from self._wait_name_free(dir_ino, name)
        now = self.sim.now

        dentry = mt.dentries.get(name)
        if dentry is None:
            _require(bool(flags & OpenFlags.O_CREAT), NotFound, name)
            require_access(mt.dir_inode, creds, W_OK | X_OK)
            ino = self.alloc.new()
            inode = new_inode(ino, FileType.REGULAR, creds, mode, now)
            dentry = Dentry(name=name, ino=ino, ftype=FileType.REGULAR)
            mt.add(dentry, inode)
            yield from self._journal_dir_change(mt, dir_ino, [
                ops_put_inode(inode), ops_put_dentry(dir_ino, dentry)])
            self._maybe_split(mt)
            created = True
        else:
            # A directory's inode is not in this table: None for one.
            inode = mt.inodes.get(dentry.ino)
            require_open(dentry.ftype, inode, creds, flags, name)
            if dentry.ftype is FileType.SYMLINK:
                return {"symlink": inode.symlink_target}
            if flags & OpenFlags.O_TRUNC and inode.size > 0:
                old_size = inode.size
                inode.size = 0
                inode.mtime = inode.ctime = now
                self.journal.record(dir_ino, ops_put_inode(inode))
                yield from self._charge_journal(1, dir_ino)
                yield from self._truncate_file_data(inode.ino, old_size, 0)
            created = False

        lease: Optional[FileLeaseGrant] = None
        if inode.ftype is FileType.REGULAR:
            lease = yield from self.fleases.acquire(inode.ino, requester or
                                                    self.name, "r")
        return {"inode": inode.to_dict(), "lease": lease, "created": created,
                "leader": self.name}

    # -- unlink -----------------------------------------------------------------------------

    def _op_unlink(self, creds: Credentials, dir_ino: int, name: str,
                   requester: str = "") -> SimGen:
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, W_OK | X_OK)
        yield from self._wait_name_free(dir_ino, name)
        dentry = mt.dentries.get(name)
        _require(dentry is not None, NotFound, name)
        _require(dentry.ftype is not FileType.DIRECTORY, IsADirectory, name)
        inode = mt.child_inode(dentry.ino)
        mt.remove(name)
        yield from self._journal_dir_change(mt, dir_ino, [
            ops_del_dentry(dir_ino, name), ops_del_inode(dentry.ino)])
        if inode.ftype is FileType.REGULAR and inode.size > 0:
            yield from self.fleases.revoke_holders(dentry.ino)
            # Data objects are purged asynchronously (UUID inode numbers mean
            # a re-created name can never collide with the dying objects).
            self.sim.process(self.prt.delete_data(dentry.ino, src=self.node),
                             name=f"purge:{dentry.ino:x}")
        self.fleases.forget_file(dentry.ino)
        return dentry.ino

    # -- mkdir / rmdir --------------------------------------------------------------------------

    def _op_mkdir(self, creds: Credentials, dir_ino: int, name: str,
                  mode: int, requester: str = "") -> SimGen:
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, W_OK | X_OK)
        yield from self._wait_name_free(dir_ino, name)
        _require(not mt.has(name), AlreadyExists, name)
        ino = self.alloc.new()
        child = new_inode(ino, FileType.DIRECTORY, creds, mode, self.sim.now)
        dentry = Dentry(name=name, ino=ino, ftype=FileType.DIRECTORY)
        mt.add(dentry, None)  # child dir inode lives in its own metatable
        put_child = ops_put_inode(child)
        yield from self._journal_dir_change(mt, dir_ino, [
            put_child, ops_put_dentry(dir_ino, dentry)], nlink=+1)
        self._maybe_split(mt)
        # Lease acquisition loads the new directory's inode object, so it
        # is in the store before mkdir returns: commit the record (a group
        # commit, as a create's fsync), then write that one object. The
        # rest of the record's checkpoint is background work.
        yield from self.journal.flush(dir_ino)
        yield from self.journal.apply_early(dir_ino, put_child)
        return child.to_dict()

    def _op_rmdir(self, creds: Credentials, dir_ino: int, name: str,
                  requester: str = "") -> SimGen:
        """Remove an (empty) child directory.

        The parent's leader coordinates: whoever leads the child must verify
        emptiness, flush, and surrender the child's lease first.
        """
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, W_OK | X_OK)
        yield from self._wait_name_free(dir_ino, name)
        dentry = mt.dentries.get(name)
        _require(dentry is not None, NotFound, name)
        _require(dentry.ftype is FileType.DIRECTORY, NotADirectory, name)
        yield from self._surrender_child(dentry.ino)
        mt.remove(name)
        yield from self._journal_dir_change(mt, dir_ino, [
            ops_del_dentry(dir_ino, name), ops_del_inode(dentry.ino)],
            nlink=-1)
        self._drop_authority_hints(dentry.ino)
        return True

    def _surrender_child(self, child_ino: int) -> SimGen:
        """Ensure the child dir is empty and nobody leads it anymore.

        Goes through the real lease protocol: either we become the child's
        leader (seeing any journaled-but-uncheckpointed entries via the
        metatable/recovery path) and release it, or we ask the current
        leader to verify emptiness and surrender. Never trusts raw storage
        while someone may hold uncommitted state in memory.
        """
        for _attempt in range(16):
            kind, who = yield from self._acquire_dir(child_ino)
            if kind not in ("local", "remote"):
                # A subclass's own kind (a split directory): empty it first.
                yield from self._surrender_layout(child_ino, who)
                continue
            if kind == "local":
                mt = self.metatables[child_ino]
                _require(mt.is_empty, DirectoryNotEmpty, f"{child_ino:x}")
                yield from self._release_dir(child_ino)
                return
            try:
                yield from self._peer_call(who, "surrender_if_empty",
                                           creds=None, dir_ino=child_ino)
                return
            except RedirectError:
                self.remotes.pop(child_ino, None)
            except NodeDown:
                self.remotes.pop(child_ino, None)
                yield self.sim.timeout(self.params.lease_retry_delay)
        raise DirectoryNotEmpty(f"{child_ino:x}", "no stable child authority")

    def _op_surrender_if_empty(self, creds: Credentials, dir_ino: int,
                               requester: str = "") -> SimGen:
        """RPC from a parent leader preparing to rmdir a dir we lead."""
        yield self.sim.timeout(0)
        mt = self.metatables.get(dir_ino)
        if mt is None or mt.lease_expires <= self.sim.now:
            # Our lease lapsed: make the caller re-resolve authority.
            raise RedirectError(dir_ino, None)
        _require(mt.is_empty, DirectoryNotEmpty, f"{dir_ino:x}")
        yield from self._release_dir(dir_ino)
        return True

    # -- attribute updates -------------------------------------------------------------------------

    def _locate_inode(self, mt, name: Optional[str]):
        """The target inode for a setattr: a child file, or the dir itself."""
        if name is None:
            return mt.dir_inode, None
        dentry = mt.lookup(name)
        if dentry.ftype is FileType.DIRECTORY:
            return None, dentry.ino  # caller must go to the dir's own leader
        return mt.child_inode(dentry.ino), None

    def _op_setattr(self, creds: Credentials, dir_ino: int,
                    name: Optional[str], changes: Dict[str, Any],
                    requester: str = "") -> SimGen:
        """chmod/chown/utimens/truncate-size/setfacl on a child file
        (``name`` given) or on the directory itself (``name`` is None)."""
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        if name is not None:
            require_access(mt.dir_inode, creds, X_OK)
        inode, redirect = self._locate_inode(mt, name)
        if redirect is not None:
            return {"redirect_dir": redirect}
        old_size = apply_setattr(inode, creds, changes, self.sim.now)
        if inode.size != old_size:  # a grow revokes: readers learn it
            yield from self._truncate_file_data(inode.ino, old_size,
                                                inode.size)
        self.journal.record(dir_ino, ops_put_inode(inode))
        yield from self._charge_journal(1, dir_ino)
        return inode.to_dict()

    def _op_update_inode(self, creds: Credentials, dir_ino: int, ino: int,
                         size: int, mtime: float, requester: str = "") -> SimGen:
        """Post-write metadata publication from a data-writing client
        (size/mtime reach the leader at fsync/close)."""
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        inode = mt.inodes.get(ino)
        if inode is None:
            raise NotFound(f"inode {ino:x}", "file removed while open")
        if size > inode.size:
            inode.size = size
        inode.mtime = max(inode.mtime, mtime)
        inode.ctime = self.sim.now
        self.journal.record(dir_ino, ops_put_inode(inode))
        yield from self._charge_journal(1, dir_ino)
        return inode.to_dict()

    def _op_fsync_dir(self, creds: Credentials, dir_ino: int,
                      requester: str = "") -> SimGen:
        """Force the directory's compound transaction to commit (fsync)."""
        yield from self._ensure_leader(dir_ino)
        yield from self.journal.flush(dir_ino)
        return True

    # -- symlinks ------------------------------------------------------------------------------------

    def _op_symlink(self, creds: Credentials, dir_ino: int, name: str,
                    target: str, requester: str = "") -> SimGen:
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, W_OK | X_OK)
        yield from self._wait_name_free(dir_ino, name)
        _require(not mt.has(name), AlreadyExists, name)
        ino = self.alloc.new()
        inode = new_inode(ino, FileType.SYMLINK, creds, 0, self.sim.now,
                          target)
        dentry = Dentry(name=name, ino=ino, ftype=FileType.SYMLINK)
        mt.add(dentry, inode)
        yield from self._journal_dir_change(mt, dir_ino, [
            ops_put_inode(inode), ops_put_dentry(dir_ino, dentry)])
        self._maybe_split(mt)
        return inode.to_dict()

    def _op_readlink(self, creds: Credentials, dir_ino: int, name: str,
                     requester: str = "") -> SimGen:
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, X_OK)
        dentry = mt.lookup(name)
        _require(dentry.ftype is FileType.SYMLINK, InvalidArgument, name,
                 "not a symlink")
        return mt.child_inode(dentry.ino).symlink_target

    # -- file data leases ---------------------------------------------------------------------------------

    def _op_flease(self, creds: Credentials, dir_ino: int, ino: int,
                   mode: str, requester: str = "") -> SimGen:
        """Acquire/renew a read or write lease on a child file's data; the
        reply carries the file's size too (None once it is gone)."""
        mt = yield from self._ensure_leader(dir_ino)
        grant = yield from self.fleases.acquire(ino, requester or self.name,
                                                mode)
        inode = mt.inodes.get(ino)
        return grant, None if inode is None else inode.size

    # -- rename ----------------------------------------------------------------------------------------------

    def _op_rename_local(self, creds: Credentials, dir_ino: int, src_name: str,
                         dst_name: str, requester: str = "") -> SimGen:
        """Rename within one directory: one journal, trivially atomic."""
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, W_OK | X_OK)
        yield from self._wait_name_free(dir_ino, src_name)
        yield from self._wait_name_free(dir_ino, dst_name)
        dentry = mt.dentries.get(src_name)
        _require(dentry is not None, NotFound, src_name)
        if src_name == dst_name:
            return True
        existing = mt.dentries.get(dst_name)
        if existing is not None:
            yield from self._check_overwrite(dentry, existing)
            yield from self._remove_overwritten(mt, dir_ino, existing)
        moved = Dentry(name=dst_name, ino=dentry.ino, ftype=dentry.ftype)
        inode = mt.inodes.get(dentry.ino)
        mt.remove(src_name)
        mt.add(moved, inode)
        after = []
        if inode is not None:
            inode.ctime = self.sim.now
            after.append(ops_put_inode(inode))
        yield from self._journal_dir_change(mt, dir_ino, [
            ops_del_dentry(dir_ino, src_name),
            ops_put_dentry(dir_ino, moved)], after)
        return True

    def _check_overwrite(self, src_dentry: Dentry,
                         dst_dentry: Dentry) -> SimGen:
        """POSIX rename-overwrite rules; a replaced directory must be
        empty, and nobody may lead it any more."""
        require_overwrite(src_dentry.ftype, dst_dentry.ftype, dst_dentry.name)
        if dst_dentry.ftype is FileType.DIRECTORY:
            yield from self._surrender_child(dst_dentry.ino)
        else:
            yield self.sim.timeout(0)

    def _remove_overwritten(self, mt, dir_ino: int,
                            dentry: Dentry) -> SimGen:
        """Unlink the entry being replaced by a rename. ``dir_ino`` is the
        authority whose journal takes the record — for a shard table that
        is the shard, not the parent directory ``mt.dir_ino`` names."""
        inode = mt.inodes.get(dentry.ino)
        mt.remove(dentry.name)
        self.journal.record(dir_ino, ops_del_inode(dentry.ino))
        if inode is not None and inode.ftype is FileType.REGULAR and inode.size:
            yield from self.fleases.revoke_holders(dentry.ino)
            yield from self.prt.delete_data(dentry.ino, src=self.node)
        else:
            yield self.sim.timeout(0)
        self.fleases.forget_file(dentry.ino)
        if dentry.ftype is FileType.DIRECTORY:
            if not mt.is_shard:
                mt.dir_inode.nlink -= 1
            self._drop_authority_hints(dentry.ino)

    # Cross-directory rename: 2PC participants (Section III-E).

    def _op_rename_prepare_src(self, creds: Credentials, dir_ino: int,
                               name: str, txid: str, decision_key: str,
                               requester: str = "") -> SimGen:
        """Participant 1: validate the source side and force-commit a
        PREPARE transaction removing the entry. Returns the payload the
        destination side needs, plus our journal seq and where phase 2
        must find this participant (leader, and the ino it ran against)."""
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, W_OK | X_OK)
        yield from self._wait_name_free(dir_ino, name)
        dentry = mt.dentries.get(name)
        _require(dentry is not None, NotFound, name)
        inode = mt.inodes.get(dentry.ino)
        if inode is not None:
            # File leases move with the file to the destination leader.
            yield from self.fleases.revoke_holders(dentry.ino)
            self.fleases.forget_file(dentry.ino)
        self._touch_dir(mt)
        ops = [ops_del_dentry(dir_ino, name)]
        if not mt.is_shard:
            ops.append(ops_put_inode(mt.dir_inode))
            if dentry.ftype is FileType.DIRECTORY:
                mt.dir_inode.nlink -= 1  # applied at commit; journal has state
                ops[-1] = ops_put_inode(mt.dir_inode)
                mt.dir_inode.nlink += 1  # undo until commit
        seq = yield from self.journal.prepare(dir_ino, txid, ops, decision_key)
        self._pending_names.add((dir_ino, name))
        self._pending_renames[txid, dir_ino] = {
            "seq": seq, "ops": ops, "name": name, "role": "src",
            "dentry": dentry, "inode": inode,
        }
        return {
            "dentry": dentry.to_dict(),
            "inode": inode.to_dict() if inode is not None else None,
            "seq": seq, "leader": self.name, "dir_ino": dir_ino,
        }

    def _op_rename_prepare_dst(self, creds: Credentials, dir_ino: int,
                               name: str, payload: Dict[str, Any], txid: str,
                               decision_key: str, requester: str = "") -> SimGen:
        """Participant 2: validate the destination side and force-commit a
        PREPARE transaction inserting the entry. Replies like participant 1
        (seq, leader, ino)."""
        mt = yield from self._ensure_leader(dir_ino)
        yield from self._charge_md_op()
        require_access(mt.dir_inode, creds, W_OK | X_OK)
        yield from self._wait_name_free(dir_ino, name)
        src_dentry = Dentry.from_dict(payload["dentry"])
        moved = Dentry(name=name, ino=src_dentry.ino, ftype=src_dentry.ftype)
        moved_inode = (Inode.from_dict(payload["inode"])
                       if payload.get("inode") else None)
        existing = mt.dentries.get(name)
        extra_ops: List[Dict[str, Any]] = []
        if existing is not None:
            yield from self._check_overwrite(src_dentry, existing)
            extra_ops.append(ops_del_inode(existing.ino))
        now = self.sim.now
        dir_copy = mt.dir_inode.copy()
        dir_copy.mtime = dir_copy.ctime = now
        if moved.ftype is FileType.DIRECTORY and (
            existing is None or existing.ftype is not FileType.DIRECTORY
        ):
            dir_copy.nlink += 1
        ops = extra_ops + [ops_put_dentry(dir_ino, moved)]
        if not mt.is_shard:
            ops.append(ops_put_inode(dir_copy))
        if moved_inode is not None:
            moved_inode.ctime = now
            ops.append(ops_put_inode(moved_inode))
        seq = yield from self.journal.prepare(dir_ino, txid, ops, decision_key)
        self._pending_names.add((dir_ino, name))
        self._pending_renames[txid, dir_ino] = {
            "seq": seq, "ops": ops, "name": name, "role": "dst",
            "dentry": moved, "inode": moved_inode, "existing": existing,
            "dir_copy": dir_copy,
        }
        return {"seq": seq, "leader": self.name, "dir_ino": dir_ino}

    def _op_rename_finish(self, creds: Credentials, dir_ino: int, txid: str,
                          commit: bool, requester: str = "") -> SimGen:
        """Phase 2: apply (or discard) the prepared rename transaction."""
        pend = self._pending_renames.pop((txid, dir_ino), None)
        if pend is None:
            yield self.sim.timeout(0)
            return False
        self._pending_names.discard((dir_ino, pend["name"]))
        mt = self.metatables.get(dir_ino)
        if commit and mt is not None:
            if pend["role"] == "src":
                if mt.has(pend["name"]):
                    mt.remove(pend["name"])
                nlink = mt.dir_inode.nlink
                if pend["dentry"].ftype is FileType.DIRECTORY:
                    nlink -= 1
                self._drop_authority_hints(pend["dentry"].ino)
            else:
                existing = pend.get("existing")
                if existing is not None:
                    yield from self._remove_overwritten(mt, dir_ino, existing)
                mt.add(pend["dentry"], pend["inode"])
                nlink = pend["dir_copy"].nlink
            if not mt.is_shard:
                mt.dir_inode.nlink = nlink
            self._touch_dir(mt)
        yield from self.journal.finish_prepared(dir_ino, pend["seq"],
                                                pend["ops"], commit)
        return True
