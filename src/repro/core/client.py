"""The ArkFS client: near-POSIX operations with client-driven metadata.

Each client node runs one of these. It implements the full VFS surface by:

1. resolving paths component-by-component against local metatables (when it
   leads the directory), its permission cache (pcache mode), or the current
   leader via RPC (Fig. 3);
2. executing metadata mutations locally when it is the directory leader —
   journaled into the per-directory compound transaction — or forwarding
   them to the leader;
3. running data I/O through its write-back data-object cache under file
   read/write leases issued by the parent directory's leader.

Background processes per client: journal commit/checkpoint threads and a
*lease keeper* that extends leases on directories still in use (dirty
journal, open files, or recent activity) and cleanly flushes + releases the
rest before they lapse.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional, Set, Tuple

from ..objectstore.errors import NoSuchKey, TransientError
from ..posix import path as pathmod
from ..posix.acl import Acl, check_perm
from ..posix.errors import (
    AlreadyExists,
    FSError,
    InvalidArgument,
    IOFailure,
    IsADirectory,
    NotADirectory,
    NotFound,
    PermissionDenied,
    UnsupportedOperation,
)
from ..posix.types import (Credentials, FileType, OpenFlags, StatFSResult,
                           X_OK)
from ..posix.vfs import FileHandle, VFSClient
from ..sim.engine import Interrupt, SimGen, Simulator
from ..sim.network import MessageDropped, Node, NodeDown
from .cache import DataObjectCache
from .datapath import LeasedDataPath, OpenFile, OpenState
from .filelease import FileLeaseService
from .inode_rules import (FOLLOWS_FINAL, follow_symlink, permits,
                          require_access, up)
from .journal import JournalManager
from .lease import LeaseGrant, LeaseRedirect, LeaseWait, StaleEpochError
from .metatable import Metatable, RemoteTable, load_metatable
from .ops import LeaderOps, RedirectError
from .params import ArkFSParams
from .prt import PRT
from .recovery import DECISION_ABORT, DECISION_COMMIT, recover_directory
from .retry import RetryPolicy
from .types import Dentry, Inode, InoAllocator, ROOT_INO

__all__ = ["ArkFSClient"]

# What ArkFSClient._walk returns for a path (its ``want``).
WALK_DIR = 0        # the directory the whole path names
WALK_PARENT = 1     # (parent ino, final name)
WALK_ENTRY = 2      # (parent ino, final name, final Dentry)
WALK_INODE = 3      # the final target's Inode
WALK_STAT = 4       # the final target's StatResult
WALK_OPEN = 5       # (parent's directory stack, final name, links followed)


class DirectoryRemoved(NotFound):
    """The directory's inode is gone from the store (ENOENT to callers)."""

    def __init__(self, ino: int):
        super().__init__(f"dir {ino:x}", "directory removed")
        self.ino = ino


class ArkFSClient(LeaderOps, LeasedDataPath, VFSClient):
    """One ArkFS client (typically one per client node)."""

    def __init__(self, sim: Simulator, node: Node, prt: PRT,
                 params: ArkFSParams, lease_service,
                 alloc: InoAllocator, retry: Optional[RetryPolicy] = None):
        """``lease_service`` is the lease-manager ring (or, for a ring of
        one, its only member): ``node_for(dir_ino)`` routes lease RPCs and
        ``fencing`` is the registry journal commits are checked against.
        ``retry`` is the cluster's one retry policy, used here only for what
        is not a store verb: lease RPCs and counting the whole-op
        redispatch (store verbs are retried beneath ``prt.store``)."""
        self.sim = sim
        self.node = node
        self.prt = prt
        self.params = params
        self._lease_node_for = lease_service.node_for
        self._fencing = lease_service.fencing
        self.alloc = alloc
        self.name = node.name
        self.alive = True

        self.metatables: Dict[int, Metatable] = {}
        self.remotes: Dict[int, RemoteTable] = {}
        # Permission cache (pcache mode): dir ino -> (dir Inode, expiry)
        self.pcache: Dict[int, Tuple[Inode, float]] = {}
        self.pcache_dentries: Dict[Tuple[int, str], Tuple[Dentry, float]] = {}

        self._retry = retry or RetryPolicy.from_params(sim, params)
        self.journal = self._new_journal()
        self.cache = DataObjectCache(
            sim, prt, node,
            entry_size=params.data_object_size,
            capacity_bytes=params.cache_capacity_bytes,
            max_readahead=params.max_readahead,
            copy_bw=params.cache_copy_bw,
            fetch_parallel=params.fetch_parallel,
            writeback_parallel=params.writeback_parallel,
        )
        self.fleases = FileLeaseService(sim, params.file_lease_period,
                                        self._revoke_holder)
        self._open_dirs: Dict[int, int] = {}   # parent dir ino -> open handles
        self._open_files: Dict[int, OpenFile] = {}   # ino -> its record
        self._acquiring: Dict[int, Any] = {}   # dir ino -> in-flight latch
        self._pending_names: Set[Tuple[int, str]] = set()
        self._pending_renames: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self._rename_counter = 0
        self._mgr_epoch_seen: Dict[int, int] = {}

        node.register("arkfs", self._h_dispatch)
        node.register("arkfs.cache_invalidate", self._revoked)
        self.journal.start_threads()
        self._keeper = sim.process(self._lease_keeper(),
                                   name=f"{self.name}.keeper")

    def _leads_dir(self, dir_ino: int) -> bool:
        """Do we currently hold this directory's metatable lease?"""
        mt = self.metatables.get(dir_ino)
        return mt is not None and mt.lease_expires > self.sim.now

    def _new_journal(self) -> JournalManager:
        """Journal commits are refused against the lease service's fencing
        registry once a newer authority exists; a refusal deposes us."""
        return JournalManager(self.sim, self.prt, self.params, self.node,
                              self.name, self._fencing, self._fence_token,
                              self._stop_leading)

    def _fence_token(self, dir_ino: int) -> Tuple[int, int]:
        """Our fencing token for a directory's journal stream: the
        (manager-range epoch, directory epoch) of the lease we believe we
        hold. Lexicographically below any grant issued after a failover,
        and below every grant when we hold no lease at all."""
        mt = self.metatables.get(dir_ino)
        if mt is None:
            return (0, 0)
        return (mt.mgr_epoch, mt.epoch)

    def _stop_leading(self, dir_ino: int) -> Optional[Metatable]:
        """The one way out of leading a directory: metatable, journal
        stream and the file leases we issued all go together.

        Callers that still hold the lease they were granted flush first
        (:meth:`_hand_back_dir`), so nothing is left to lose here. Everyone
        else — deposed, lapsed, a split that retired the range — is a
        zombie for this directory: whatever its journal still buffers was
        never acknowledged as durable and is dropped, with the cached data
        of the files those ops would have created, exactly as if we had
        crashed. Plain function: safe to call from the journal's fence
        check."""
        mt = self.metatables.pop(dir_ino, None)
        lost = self.journal.discard(dir_ino)
        if lost:
            self.cache.discard(lost)
        if mt is not None:
            for ino in mt.inodes:
                self.fleases.forget_file(ino)
        return mt

    def _hand_back_dir(self, dir_ino: int) -> SimGen:
        """Stop leading cleanly: commit and checkpoint the journal while
        our token is still the one the lease was granted under, then let
        go. Leaves the journal empty, so the next leader can be given a
        no-recovery grant and load the base objects directly."""
        try:
            yield from self.journal.flush(dir_ino, full=True)
            while (self.journal.is_dirty(dir_ino)
                   and not self.params.single_journal):
                # Ops that slipped in behind the flush (we still led). The
                # shared journal of ablation A1 is other directories' too,
                # outlives this one and is not ours to wait clean.
                yield from self.journal.flush(dir_ino, full=True)
        except StaleEpochError:
            return None  # deposed mid-flush: the fence check already let go
        self.journal.drop(dir_ino)
        return self._stop_leading(dir_ino)

    # ------------------------------------------------------------------ costs

    def _charge_md_op(self) -> SimGen:
        return self.node.work(self.params.md_op_cpu)

    def _charge_journal(self, n_entries: int,
                        dir_ino: Optional[int] = None) -> SimGen:
        yield from self.node.work(n_entries * self.params.journal_entry_cpu)
        if dir_ino is not None and self.journal.sync_commit:
            # Ablation A2: no compound-transaction buffering — every
            # metadata mutation commits its journal record immediately.
            yield from self.journal.flush(dir_ino)

    # ----------------------------------------------------------- RPC plumbing

    def _h_dispatch(self, opname: str, kwargs: Dict[str, Any]) -> SimGen:
        """Leader-side entry point for forwarded operations."""
        yield from self.node.work(self.params.rpc_handler_cpu)
        return (yield from self._run_op(opname, kwargs))

    def _run_op(self, opname: str, kwargs: Dict[str, Any]) -> SimGen:
        """The leader-side handler's generator (no frame of its own)."""
        return getattr(self, "_op_" + opname)(**kwargs)

    def _peer_call(self, leader: str, opname: str, **kwargs: Any) -> SimGen:
        """Forward an op to the directory's leader: the RPC's generator,
        with no frame of its own."""
        target = self.node.net.nodes.get(leader)
        if target is None:
            raise NodeDown(f"unknown leader {leader}")
        kwargs.setdefault("requester", self.name)
        return self.node.call(target, "arkfs", opname, kwargs)

    def _mgr(self, method: str, *args: Any) -> SimGen:
        """Call the lease manager responsible for args[0] (a dir ino).

        Lost messages (fault injection) are retried with bounded exponential
        backoff — a dropped lease RPC must not surface as a dead manager.
        A genuinely dead manager still raises NodeDown immediately."""
        return self._retry.call(
            partial(self.node.call, self._lease_node_for(args[0]), method,
                    *args),
            retry_on=(MessageDropped,))

    # ------------------------------------------------------- lease acquisition

    def _acquire_dir(self, dir_ino: int) -> SimGen:
        """Become (or find) the directory's leader: ``("local", mt)``,
        ``("remote", leader)``, or a subclass's own kind (``_reroute``)."""
        now = self.sim.now
        mt = self.metatables.get(dir_ino)
        if mt is not None and mt.lease_expires > now:
            return ("local", mt)
        rt = self.remotes.get(dir_ino)
        if rt is not None and rt.valid(now):
            return ("remote", rt.leader)
        # Only one acquisition per directory may be in flight: a second
        # concurrent load could otherwise overwrite a metatable that has
        # already absorbed local mutations.
        latch = self._acquiring.get(dir_ino)
        if latch is not None:
            tr = self.sim._active_proc.tracer
            if tr is not None:
                with tr.span("lease.wait", "queue"):
                    yield latch
            else:
                yield latch
            # Start over through the (possibly overridden) entry point.
            return (yield from self._acquire_dir(dir_ino))
        latch = self.sim.event()
        self._acquiring[dir_ino] = latch
        try:
            return (yield from self._acquire_dir_inner(dir_ino))
        finally:
            del self._acquiring[dir_ino]
            latch.succeed()

    def _acquire_dir_inner(self, dir_ino: int) -> SimGen:
        while True:
            hint = self._lease_hint(dir_ino)
            if hint is not None:
                return hint
            now = self.sim.now
            mt = self.metatables.get(dir_ino)
            if mt is not None and mt.lease_expires > now:
                return ("local", mt)
            rt = self.remotes.get(dir_ino)
            if rt is not None and rt.valid(now):
                return ("remote", rt.leader)
            resp = yield from self._mgr("lease.acquire", dir_ino, self.name)
            if isinstance(resp, LeaseGrant):
                if resp.mgr_epoch < self._mgr_epoch_seen.get(dir_ino, 0):
                    # A grant from a deposed range authority, delayed in
                    # flight across a failover: never act on it.
                    yield self.sim.timeout(self.params.lease_retry_delay)
                    continue
                self._mgr_epoch_seen[dir_ino] = resp.mgr_epoch
                if resp.needs_recovery:
                    yield from recover_directory(self.prt, dir_ino,
                                                 src=self.node)
                    yield from self._mgr("lease.recovered", dir_ino, self.name)
                if not resp.fresh and mt is not None:
                    mt.lease_expires = resp.expires_at
                    mt.epoch = resp.epoch
                    mt.mgr_epoch = resp.mgr_epoch
                    return ("local", mt)
                mt = yield from self._load_dir(dir_ino, resp)
                if mt is None:
                    yield from self._mgr("lease.release", dir_ino, self.name,
                                         True)
                    raise DirectoryRemoved(dir_ino)
                if not isinstance(mt, Metatable):
                    return mt  # a subclass's route
                self.metatables[dir_ino] = mt
                self.remotes.pop(dir_ino, None)
                self.pcache.pop(dir_ino, None)
                return ("local", mt)
            if isinstance(resp, LeaseRedirect):
                self.remotes[dir_ino] = RemoteTable(dir_ino, resp.leader,
                                                    resp.expires_at)
                return ("remote", resp.leader)
            assert isinstance(resp, LeaseWait)
            yield self.sim.timeout(
                max(resp.retry_at - self.sim.now,
                    self.params.lease_retry_delay)
            )

    # Hooks run once per lease attempt, grant, leaderless redirect, crash
    # or restart: empty here, a client layer's otherwise.

    def _lease_hint(self, dir_ino: int) -> Optional[Tuple[str, Any]]:
        return None

    def _load_dir(self, dir_ino: int, grant: LeaseGrant) -> SimGen:
        """Load a granted directory in one read round: its metatable,
        ``None`` when it was removed, or a subclass's own route."""
        return load_metatable(self.prt, dir_ino, self.node,
                              grant.expires_at, grant.epoch,
                              mgr_epoch=grant.mgr_epoch)

    def _leaderless_redirect(self, dir_ino: int) -> SimGen:
        yield from ()

    def _crash_layers(self) -> None:
        pass

    def _ensure_leader(self, dir_ino: int) -> SimGen:
        """Leader-side revalidation; raises RedirectError if we are not it."""
        now = self.sim.now
        mt = self.metatables.get(dir_ino)
        if mt is not None and mt.lease_expires > now:
            mt.last_used = now
            mt_margin = mt.lease_expires - now
            if mt_margin < self.params.lease_renew_margin:
                resp = yield from self._mgr("lease.acquire", dir_ino,
                                            self.name)
                if isinstance(resp, LeaseGrant) and not resp.fresh:
                    mt.lease_expires = resp.expires_at
                elif isinstance(resp, LeaseRedirect):
                    self._stop_leading(dir_ino)  # deposed
                    raise RedirectError(dir_ino, resp.leader)
            return mt
        kind, who = yield from self._acquire_dir(dir_ino)
        if kind == "local":
            return who
        raise RedirectError(dir_ino, who if kind == "remote" else None)

    def _authority_op(self, dir_ino: int, opname: str,
                      creds: Optional[Credentials],
                      route_name: Optional[str] = None,
                      **kwargs: Any) -> SimGen:
        """Run an op at the directory's authority and return its result;
        retries across leader changes.

        ``route_name`` (never forwarded) names the entry an ino-keyed op
        concerns, for a subclass that routes by name."""
        # Unreachable leaders and transient store errors back off
        # exponentially (bounded by the attempt budget); redirects retry
        # immediately, since they carry fresh routing information.
        backoff = self.params.lease_retry_delay
        for _attempt in range(16):
            try:
                kind, who = yield from self._acquire_dir(dir_ino)
            except DirectoryRemoved as e:
                dir_ino = yield from self._reresolve_removed(e, dir_ino,
                                                             creds)
                continue
            try:
                if kind == "local":
                    return (yield from self._run_op(opname, dict(
                        creds=creds, dir_ino=dir_ino, requester=self.name,
                        **kwargs)))
                if kind == "remote":
                    return (yield from self._peer_call(
                        who, opname, creds=creds, dir_ino=dir_ino, **kwargs))
                # A subclass's own kind: it finishes the op, or names the
                # directory to re-dispatch to (ShardedClient._reroute).
                result, dir_ino = yield from self._reroute(
                    who, dir_ino, opname, creds, route_name, kwargs)
                if result is not None:
                    return result
            except RedirectError as e:
                if not self._leads_dir(dir_ino):
                    self._stop_leading(dir_ino)
                if e.leader and e.leader != self.name:
                    self.remotes[dir_ino] = RemoteTable(
                        dir_ino, e.leader,
                        self.sim.now + self.params.lease_period)
                else:
                    self.remotes.pop(dir_ino, None)
                    yield from self._leaderless_redirect(dir_ino)
            except DirectoryRemoved as e:
                # The leader we forwarded to found it gone.
                dir_ino = yield from self._reresolve_removed(e, dir_ino,
                                                             creds)
            except NodeDown:
                self.remotes.pop(dir_ino, None)
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, self.params.lease_period)
            except TransientError:
                # The store's retry layer already gave up: the outage
                # outlasted one backoff ladder of some verb. Wait longer
                # and re-dispatch. Like any at-most-once RPC retry this can
                # observe the first attempt's partial effect (e.g. mkdir →
                # EEXIST), which callers must treat as success-ambiguity.
                self._retry.note_retry(backoff)
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, self.params.lease_period)
        raise IOFailure(detail=f"no stable authority for dir {dir_ino:x}")

    # ------------------------------------------------------------- resolution

    def _walk(self, creds: Optional[Credentials], path: str, want: int,
              verb: str = "", base: Optional[list] = None,
              links: int = 0) -> SimGen:
        """Resolve ``path`` and return what ``want`` asks for (the
        ``WALK_*`` table; ``WALK_ENTRY`` of a path that names a directory
        by itself is ``(ino, None, None)``). A final symlink is followed
        when ``verb`` is in ``FOLLOWS_FINAL``. With ``base``, ``path`` is a
        symlink target (or one name) read in ``base``'s directories, after
        ``links`` links.

        The one path walker. Each component is resolved in this loop: in
        the metatable when we lead its directory, else from the permission
        cache, else at the directory's authority (:meth:`_lookup_component`).
        The first two yield the lookup-CPU hold from this frame, so a
        resume under it re-enters the op's frame and this one only (DESIGN
        §10). ``..`` pops the stack of resolved directories, and a
        symlink, intermediate or final, goes on at its target (the path
        rule: :func:`up`, :func:`follow_symlink`)."""
        params = self.params
        lookup_cpu = params.lookup_cpu
        pcache_on = params.permission_cache
        if base is None:
            parts = pathmod.split_path(path)
            stack = [ROOT_INO]
        else:
            parts, stack = follow_symlink(path, [], base, links)
        i = 0
        while True:
            if i == 0:          # a pass: the path, or a target and the rest
                cur = stack[-1]
                n = len(parts)  # components resolved as directories
                if want != WALK_DIR and n and parts[-1] != "..":
                    n -= 1
            if i < n:
                name = parts[i]
                if name == "..":
                    cur = up(stack)
                    i += 1
                    continue
            elif want == WALK_DIR:
                return cur
            elif n == len(parts):
                # No final name: the path names the directory ``cur``.
                if want == WALK_PARENT:
                    raise InvalidArgument(path,
                                          "operation needs a parent directory")
                if want == WALK_OPEN:
                    raise IsADirectory(path)
                name = dentry = None
                break
            elif want == WALK_PARENT:
                return cur, parts[n]
            elif want == WALK_OPEN:
                return stack, parts[n], links
            else:
                name = parts[n]
            now = self.sim.now
            mt = self.metatables.get(cur)
            if mt is not None and mt.lease_expires > now:
                mt.last_used = now
                if lookup_cpu > 0:
                    yield from self.node.cpu.use(lookup_cpu)
                require_access(mt.dir_inode, creds, X_OK)
                dentry = mt.lookup(name)
            else:
                pc = pd = None
                if pcache_on:
                    pc = self.pcache.get(cur)
                    pd = self.pcache_dentries.get((cur, name))
                if (pc is not None and pc[1] > now
                        and pd is not None and pd[1] > now):
                    if lookup_cpu > 0:
                        yield from self.node.cpu.use(lookup_cpu)
                    pi = pc[0]
                    if creds is not None and not check_perm(
                        pi.acl, pi.mode, pi.uid, pi.gid, creds, X_OK
                    ):
                        raise PermissionDenied(f"dir {cur:x}")
                    dentry = pd[0]
                else:
                    dentry = yield from self._lookup_component(creds, cur,
                                                               name)
            ftype = dentry.ftype
            if i < n:
                if ftype is FileType.DIRECTORY:
                    cur = dentry.ino
                    stack.append(cur)
                    i += 1
                    continue
                if ftype is not FileType.SYMLINK:
                    raise NotADirectory(name)
            elif ftype is not FileType.SYMLINK or verb not in FOLLOWS_FINAL:
                break
            links += 1
            target = yield from self._authority_op(cur, "readlink", creds,
                                                   name=name)
            parts, stack = follow_symlink(target, parts[i + 1:], stack,
                                          links)
            i = 0
        if want == WALK_ENTRY:
            return cur, name, dentry
        if dentry is None or dentry.ftype is FileType.DIRECTORY:
            d = yield from self._authority_op(
                cur if dentry is None else dentry.ino, "getattr_dir", creds)
        else:
            d = yield from self._authority_op(cur, "getattr_child", creds,
                                              name=name)
            if isinstance(d, dict) and "redirect_dir" in d:
                d = yield from self._authority_op(d["redirect_dir"],
                                                  "getattr_dir", creds)
        inode = Inode.from_dict(d)
        return inode.stat() if want == WALK_STAT else inode

    def _lookup_component(self, creds: Optional[Credentials], dir_ino: int,
                          name: str) -> SimGen:
        """Resolve one name at its directory's authority (Dentry), and keep
        what came back in the permission cache. :meth:`_walk` tries the
        metatable and the permission cache first."""
        now = self.sim.now
        dentry_d, dir_inode_d = yield from self._authority_op(
            dir_ino, "lookup", creds, name=name)
        dentry = Dentry.from_dict(dentry_d)
        if self.params.permission_cache and dir_ino not in self.metatables:
            exp = now + self.params.lease_period
            self.pcache[dir_ino] = (Inode.from_dict(dir_inode_d), exp)
            self.pcache_dentries[(dir_ino, name)] = (dentry, exp)
        return dentry

    def _drop_authority_hints(self, dir_ino: int) -> None:
        """Forget everything we believed about a removed/moved directory."""
        self.remotes.pop(dir_ino, None)
        self.pcache.pop(dir_ino, None)
        for key in [k for k in self.pcache_dentries if k[0] == dir_ino]:
            del self.pcache_dentries[key]

    def _reresolve_removed(self, err: DirectoryRemoved, dir_ino: int,
                           creds: Optional[Credentials]) -> SimGen:
        """``dir_ino``, the directory an op was sent to, is gone. If a
        permission-cache dentry still names it (DESIGN §6 tolerates stale
        *permissions*, not a stale name→ino), drop that dentry and resolve
        the name once more through its directory's leader; otherwise the
        error stands."""
        key = None
        if err.ino == dir_ino:
            key = next((k for k, (dn, _exp) in self.pcache_dentries.items()
                        if dn.ino == dir_ino), None)
        if key is None:
            raise err
        del self.pcache_dentries[key]
        _, _, dentry = yield from self._walk(creds, key[1], WALK_ENTRY,
                                             base=[key[0]])
        if dentry.ftype is not FileType.DIRECTORY:
            raise NotADirectory(key[1])
        if dentry.ino == dir_ino:
            raise err
        return dentry.ino

    # ------------------------------------------------------------ VFS: namespace

    def mkdir(self, creds: Credentials, path: str, mode: int = 0o777) -> SimGen:
        parts = pathmod.split_path(path)
        if not parts:
            raise AlreadyExists("/")
        parent, name = yield from self._walk(creds, path, WALK_PARENT)
        yield from self._authority_op(parent, "mkdir", creds, name=name,
                                      mode=mode)

    def rmdir(self, creds: Credentials, path: str) -> SimGen:
        parent, name = yield from self._walk(creds, path, WALK_PARENT)
        yield from self._authority_op(parent, "rmdir", creds, name=name)
        self.pcache_dentries.pop((parent, name), None)

    def readdir(self, creds: Credentials, path: str) -> SimGen:
        dir_ino = yield from self._walk(creds, path, WALK_DIR)
        return (yield from self._authority_op(dir_ino, "readdir", creds))

    def unlink(self, creds: Credentials, path: str) -> SimGen:
        parent, name = yield from self._walk(creds, path, WALK_PARENT)
        ino = yield from self._authority_op(parent, "unlink", creds, name=name)
        self.pcache_dentries.pop((parent, name), None)
        if isinstance(ino, int):
            yield from self.cache.invalidate(ino, flush_dirty=False)

    def rename(self, creds: Credentials, src: str, dst: str) -> SimGen:
        src_n, dst_n = pathmod.normalize(src), pathmod.normalize(dst)
        if src_n == dst_n:
            if src_n == "/":
                raise InvalidArgument(src, "cannot rename the root")
            # rename(x, x) is a no-op only if x exists (POSIX).
            yield from self._walk(creds, src_n, WALK_ENTRY)
            return
        if src_n == "/" or dst_n == "/":
            raise InvalidArgument(src, "cannot rename the root")
        if pathmod.is_ancestor(src_n, dst_n):
            raise InvalidArgument(dst, "destination is inside the source")
        sp, sname = yield from self._walk(creds, src_n, WALK_PARENT)
        dp, dname = yield from self._walk(creds, dst_n, WALK_PARENT)
        if sp == dp:
            yield from self._authority_op(sp, "rename_local", creds,
                                          src_name=sname, dst_name=dname)
        else:
            yield from self._rename_2pc(creds, sp, sname, dp, dname)
        self.pcache_dentries.pop((sp, sname), None)
        self.pcache_dentries.pop((dp, dname), None)

    def _rename_2pc(self, creds: Credentials, sp: int, sname: str, dp: int,
                    dname: str) -> SimGen:
        """Coordinator for a cross-directory rename (Section III-E)."""
        self._rename_counter += 1
        txid = f"{self.name}-rn-{self._rename_counter:06d}"
        dkey = self.prt.key_decision(txid)
        # Each prepare's reply names the leader and the ino it ran against:
        # on a sharded directory that is the hash-routed shard, and phase 2
        # must address the SAME participant (its journal holds the txn).
        src_prep = yield from self._authority_op(
            sp, "rename_prepare_src", creds, name=sname, txid=txid,
            decision_key=dkey)
        try:
            dst_prep = yield from self._authority_op(
                dp, "rename_prepare_dst", creds, name=dname, payload=src_prep,
                txid=txid, decision_key=dkey)
        except FSError:
            yield from self.prt.store.put_if_absent(dkey, DECISION_ABORT,
                                                    src=self.node)
            yield from self._finish_participant(src_prep, txid, False)
            raise
        won = yield from self.prt.store.put_if_absent(dkey, DECISION_COMMIT,
                                                      src=self.node)
        if won:
            commit = True
        else:
            value = yield from self.prt.store.get(dkey, src=self.node)
            commit = value == DECISION_COMMIT
        src_done = yield from self._finish_participant(src_prep, txid, commit)
        dst_done = yield from self._finish_participant(dst_prep, txid, commit)
        # The decision record may only die once nothing can consult it. If a
        # participant's phase 2 failed (leader churn), its journal still
        # holds the prepared transaction — recovery will resolve it against
        # this record, and deleting it now would let recovery write a fresh
        # "abort" after the other side already committed.
        if src_done and dst_done:
            try:
                yield from self.prt.store.delete(dkey, src=self.node)
            except NoSuchKey:
                pass
        if not commit:
            raise IOFailure(detail=f"rename {txid} aborted by recovery")

    def _finish_participant(self, prepared: Dict[str, Any], txid: str,
                            commit: bool) -> SimGen:
        """Phase 2 at the participant that sent ``prepared``; tolerant of
        leader churn (journal + decision record make recovery agree).
        Returns True when it definitely resolved its prepared txn."""
        leader, dir_ino = prepared["leader"], prepared["dir_ino"]
        try:
            if leader == self.name:
                yield from self._run_op("rename_finish", dict(
                    creds=None, dir_ino=dir_ino, txid=txid, commit=commit,
                    requester=self.name))
            else:
                yield from self._peer_call(leader, "rename_finish",
                                           creds=None, dir_ino=dir_ino,
                                           txid=txid, commit=commit)
        except (NodeDown, RedirectError, FSError):
            return False
        return True

    # -------------------------------------------------------------- VFS: stat

    def stat(self, creds: Credentials, path: str) -> SimGen:
        return self._walk(creds, path, WALK_STAT, "stat")

    def lstat(self, creds: Credentials, path: str) -> SimGen:
        return self._walk(creds, path, WALK_STAT, "lstat")

    def access(self, creds: Credentials, path: str, want: int) -> SimGen:
        inode = yield from self._walk(creds, path, WALK_INODE, "access")
        return permits(inode, creds, want)

    # -------------------------------------------------------- VFS: open & data

    def open(self, creds: Credentials, path: str, flags: OpenFlags,
             mode: int = 0o666) -> SimGen:
        stack, name, links = yield from self._walk(creds, path, WALK_OPEN)
        while True:
            parent = stack[-1]
            info = yield from self._authority_op(
                parent, "open", creds, name=name, flags=int(flags), mode=mode)
            if "symlink" not in info:
                break
            # A final symlink: go on at its target, from the link's
            # directory, under the same budget.
            stack, name, links = yield from self._walk(
                creds, info["symlink"], WALK_OPEN, base=stack, links=links + 1)
        inode = Inode.from_dict(info["inode"])
        handle = FileHandle(inode.ino, flags, creds)
        f = self._opened(handle, parent, name, inode, info["lease"])
        if f.wrote and flags & OpenFlags.O_TRUNC:  # bytes it could not see
            yield from self._truncated(inode.ino, inode.size)
        self._open_dirs[parent] = self._open_dirs.get(parent, 0) + 1
        return handle

    # Hooks of the leased data path (core/datapath.py): a data lease comes
    # from the parent directory's leader, and size/mtime are published
    # there with an ``update_inode`` op.

    def _request_lease(self, handle: FileHandle, st: OpenState,
                       want: str) -> SimGen:
        return self._authority_op(
            st.parent_ino, "flease", None, ino=handle.ino, mode=want,
            route_name=st.name)

    def _publish(self, handle: FileHandle, st: OpenState) -> SimGen:
        return self._authority_op(
            st.parent_ino, "update_inode", None, ino=handle.ino,
            size=st.file.size, mtime=st.file.mtime, route_name=st.name)

    _publish_direct = _publish

    def fsync(self, handle: FileHandle) -> SimGen:
        yield from super().fsync(handle)
        st: OpenState = handle.impl
        yield from self._authority_op(st.parent_ino, "fsync_dir", None,
                                      route_name=st.name)

    def truncate(self, creds: Credentials, path: str, size: int) -> SimGen:
        inode = yield from self._setattr(creds, path, {"size": size},
                                         "truncate")
        yield from self._truncated(inode.ino, inode.size)

    # --------------------------------------------------------- VFS: attributes

    def _setattr(self, creds: Credentials, path: str,
                 changes: Dict[str, Any], verb: str) -> SimGen:
        parent, name, dentry = yield from self._walk(creds, path,
                                                     WALK_ENTRY, verb)
        if dentry is None or dentry.ftype is FileType.DIRECTORY:
            ino = parent if dentry is None else dentry.ino
            result = yield from self._authority_op(
                ino, "setattr", creds, name=None, changes=changes)
            self.pcache.pop(ino, None)
        else:
            result = yield from self._authority_op(
                parent, "setattr", creds, name=name, changes=changes)
            if isinstance(result, dict) and "redirect_dir" in result:
                result = yield from self._authority_op(
                    result["redirect_dir"], "setattr", creds, name=None,
                    changes=changes)
        return Inode.from_dict(result)

    def chmod(self, creds: Credentials, path: str, mode: int) -> SimGen:
        yield from self._setattr(creds, path, {"mode": mode}, "chmod")

    def chown(self, creds: Credentials, path: str, uid: int,
              gid: int) -> SimGen:
        yield from self._setattr(creds, path, {"uid": uid, "gid": gid},
                                 "chown")

    def utimens(self, creds: Credentials, path: str, atime: float,
                mtime: float) -> SimGen:
        yield from self._setattr(creds, path, {"times": (atime, mtime)},
                                 "utimens")

    def getfacl(self, creds: Credentials, path: str) -> SimGen:
        inode = yield from self._walk(creds, path, WALK_INODE, "getfacl")
        return inode.acl.copy() if inode.acl else Acl.from_mode(inode.mode)

    def setfacl(self, creds: Credentials, path: str, acl: Acl) -> SimGen:
        yield from self._setattr(creds, path, {"acl": acl.to_dict()},
                                 "setfacl")

    # ------------------------------------------------------------- VFS: links

    def symlink(self, creds: Credentials, target: str,
                linkpath: str) -> SimGen:
        parent, name = yield from self._walk(creds, linkpath, WALK_PARENT)
        yield from self._authority_op(parent, "symlink", creds, name=name,
                                      target=target)

    def readlink(self, creds: Credentials, path: str) -> SimGen:
        parent, name = yield from self._walk(creds, path, WALK_PARENT)
        return (yield from self._authority_op(parent, "readlink", creds,
                                              name=name))

    def statfs(self, creds: Credentials) -> SimGen:
        """statfs(2): usage from the object store (one HEAD-weight round
        trip; counts come from the backend's accounting)."""
        yield from self._charge_md_op()
        usage = getattr(self.prt.store, "usage", None)
        if usage is None:
            raise UnsupportedOperation(detail="backend reports no usage")
        n_objects, used = usage()
        capacity = int(getattr(self.prt.store, "capacity_bytes", 8e12))
        bsize = 4096
        total_blocks = capacity // bsize
        used_blocks = -(-used // bsize)
        return StatFSResult(f_bsize=bsize, f_blocks=total_blocks,
                            f_bfree=max(0, total_blocks - used_blocks),
                            f_files=n_objects)

    # ---------------------------------------------------------------- durability

    def sync(self) -> SimGen:
        """Flush all dirty data and force-commit every journal (syncfs)."""
        yield from self.cache.flush_all()
        yield from self.journal.flush_all()

    # --------------------------------------------------------- background upkeep

    def _lease_keeper(self) -> SimGen:
        """Extend in-use leases ahead of expiry; flush + release idle ones."""
        interval = max(self.params.lease_renew_margin / 2, 0.1)
        try:
            while self.alive:
                yield self.sim.timeout(interval)
                now = self.sim.now
                for dir_ino in list(self.metatables):
                    mt = self.metatables.get(dir_ino)
                    if mt is None:
                        continue
                    remaining = mt.lease_expires - now
                    if remaining > self.params.lease_renew_margin:
                        continue
                    if remaining <= 0:
                        # Lapsed: too late to safely write anything (a new
                        # leader may already exist). Discard local state.
                        self._stop_leading(dir_ino)
                        continue
                    in_use = (
                        self.journal.is_dirty(dir_ino)
                        or self._open_dirs.get(dir_ino, 0) > 0
                        or now - mt.last_used < self.params.lease_period
                    )
                    if in_use:
                        try:
                            resp = yield from self._mgr("lease.acquire",
                                                        dir_ino, self.name)
                        except NodeDown:
                            # Manager unreachable: "do its best to
                            # synchronize all the updates in memory before
                            # the lease is expired" (Section III-E).
                            yield from self._flush_dir_state(dir_ino)
                            continue
                        if isinstance(resp, LeaseGrant):
                            mt.lease_expires = resp.expires_at
                        elif isinstance(resp, LeaseRedirect):
                            self._stop_leading(dir_ino)  # deposed
                        else:
                            # The manager will not extend (its range is
                            # fenced or moved), but nobody else can be
                            # granted before our lease lapses: hand back.
                            yield from self._flush_dir_state(dir_ino)
                            yield from self._hand_back_dir(dir_ino)
                    else:
                        yield from self._release_dir(dir_ino)
        except Interrupt:
            return

    def _flush_dir_state(self, dir_ino: int) -> SimGen:
        """Make a directory's in-memory state durable while the lease still
        holds: dirty file data first, then the journal."""
        mt = self.metatables.get(dir_ino)
        if mt is not None:
            yield from self.cache.flush_many(list(mt.inodes))
        yield from self.journal.flush(dir_ino)

    def _release_dir(self, dir_ino: int) -> SimGen:
        """Cleanly flush and surrender a directory we lead."""
        if dir_ino not in self.metatables:
            return
        if (yield from self._hand_back_dir(dir_ino)) is None:
            return  # deposed mid-flush: the lease is no longer ours to release
        try:
            yield from self._mgr("lease.release", dir_ino, self.name, True)
        except NodeDown:
            pass  # manager down: the lease will simply lapse

    def _revoke_holder(self, holder: str, ino: int,
                       size: Optional[int] = None) -> SimGen:
        """FileLeaseService callback: make one holder flush + drop a file."""
        if holder == self.name:
            return (yield from self._revoked(ino, size))
        target = self.node.net.nodes.get(holder)
        if target is None:
            raise NodeDown(holder)
        yield from self.node.call(target, "arkfs.cache_invalidate", ino, size)

    # ------------------------------------------------------------ failure injection

    def crash(self) -> None:
        """Sudden client failure: all volatile state is lost."""
        self.alive = False
        self.node.crash()
        self.journal.stop()
        self.cache.discard_all()
        self.metatables.clear()
        self.remotes.clear()
        self.pcache.clear()
        self.pcache_dentries.clear()
        self._pending_names.clear()
        self._pending_renames.clear()
        self._open_dirs.clear()
        self._open_files.clear()
        for latch in self._acquiring.values():
            if not latch.triggered:
                latch.succeed()
        self._acquiring.clear()
        self._mgr_epoch_seen.clear()
        self._crash_layers()
        self.fleases.files.clear()
        self._keeper.interrupt("crash")

    def restart(self) -> None:
        """Bring the crashed client back with empty caches."""
        self.alive = True
        self.node.restart()
        self.journal = self._new_journal()
        self.journal.start_threads()
        self._keeper = self.sim.process(self._lease_keeper(),
                                        name=f"{self.name}.keeper")
