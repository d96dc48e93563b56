"""Per-directory journaling with compound transactions (Section III-E).

Each directory a client leads gets its own journal in the object store
(``j<dir-uuid>/<seq>`` objects), so journal commits for independent
directories proceed in parallel. Metadata modifications accumulate in an
in-memory *running* transaction for up to ``journal_commit_interval``
seconds (1 s by default); commit threads then write the compound
transaction to the journal, and checkpoint threads apply it to the base
``i``/``e`` objects and invalidate the journal entry. Journals are
statically mapped to commit/checkpoint threads by directory inode number.

Cross-directory operations (RENAME) use two-phase commit: a *prepare*
transaction is force-committed in each participant journal, then a decision
record (``t<txid>``) is atomically created; recovery resolves prepared
transactions against the decision record, writing an "abort" decision with
an exclusive create if none exists (so a crashed coordinator cannot leave
participants in doubt forever).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..objectstore.errors import NoSuchKey
from ..obs import Observability
from ..obs.trace import span as _span
from ..sim.engine import Interrupt, SimGen, Simulator
from ..sim.network import Node
from ..sim.resources import Mutex
from .lease import FencingRegistry, StaleEpochError
from .params import ArkFSParams
from .prt import PRT
from .types import Dentry, Inode, ino_hex

__all__ = ["JournalOp", "Transaction", "JournalManager", "apply_ops",
           "ops_put_inode", "ops_del_inode", "ops_put_dentry",
           "ops_del_dentry", "ops_set_extents", "ops_del_extents",
           "ops_clear_extents"]

JournalOp = Dict[str, Any]


# -- op record constructors ---------------------------------------------------

def ops_put_inode(inode: Inode) -> JournalOp:
    return {"op": "put_inode", "inode": inode.to_dict()}


def ops_del_inode(ino: int) -> JournalOp:
    return {"op": "del_inode", "ino": ino_hex(ino)}


def ops_put_dentry(dir_ino: int, dentry: Dentry) -> JournalOp:
    return {"op": "put_dentry", "dir": ino_hex(dir_ino), "dentry": dentry.to_dict()}


def ops_del_dentry(dir_ino: int, name: str) -> JournalOp:
    return {"op": "del_dentry", "dir": ino_hex(dir_ino), "name": name}


def ops_set_extents(ino: int, set_map) -> JournalOp:
    """Install/replace packed-extent entries in a file's extent index."""
    return {"op": "extents", "ino": ino_hex(ino),
            "set": {str(int(k)): list(v) for k, v in set_map.items()}}


def ops_del_extents(ino: int, del_list) -> JournalOp:
    """Remove packed-extent entries (chunk rewritten as a plain object)."""
    return {"op": "extents", "ino": ino_hex(ino),
            "del": sorted(int(i) for i in del_list)}


def ops_clear_extents(ino: int) -> JournalOp:
    """Drop a file's whole extent index (unlink/overwrite purge). Without
    this op, a committed-but-uncheckpointed ``set`` would recreate the
    index object after the purge already deleted it."""
    return {"op": "extents", "ino": ino_hex(ino), "clear": True}


def _coalesce(ops: List[JournalOp]) -> List[JournalOp]:
    """Final-state coalescing: within one transaction only the last action
    per object matters (this is what makes compound transactions cheap)."""
    final: Dict[Tuple, JournalOp] = {}
    for op in ops:
        kind = op["op"]
        if kind in ("put_inode",):
            key = ("i", op["inode"]["ino"])
        elif kind == "del_inode":
            key = ("i", op["ino"])
        elif kind == "put_dentry":
            key = ("e", op["dir"], op["dentry"]["n"])
        elif kind == "del_dentry":
            key = ("e", op["dir"], op["name"])
        elif kind == "extents":
            # Extent deltas MERGE rather than last-wins: each op names only
            # the chunks it touched, so dropping earlier ones would lose
            # index entries. A ``clear`` resets the accumulated state.
            key = ("x", op["ino"])
            prev = final.get(key)
            if prev is None or op.get("clear"):
                final[key] = {
                    "op": "extents", "ino": op["ino"],
                    "set": dict(op.get("set") or {}),
                    "del": sorted(int(i) for i in op.get("del") or ()),
                    "clear": bool(op.get("clear")),
                }
                continue
            sets = prev["set"]
            dels = set(prev["del"])
            for k, v in (op.get("set") or {}).items():
                sets[str(int(k))] = v
                dels.discard(int(k))
            for i in op.get("del") or ():
                sets.pop(str(int(i)), None)
                dels.add(int(i))
            prev["del"] = sorted(dels)
            continue
        else:
            raise ValueError(f"unknown journal op {kind!r}")
        final[key] = op
    return list(final.values())


def _apply_one(prt: PRT, op: JournalOp, src: Optional[Node] = None) -> SimGen:
    kind = op["op"]
    if kind == "put_inode":
        yield from prt.put_inode(Inode.from_dict(op["inode"]), src=src)
    elif kind == "del_inode":
        yield from prt.delete_inode(int(op["ino"], 16), src=src)
    elif kind == "put_dentry":
        yield from prt.put_dentry(int(op["dir"], 16),
                                  Dentry.from_dict(op["dentry"]), src=src)
    elif kind == "del_dentry":
        yield from prt.delete_dentry(int(op["dir"], 16), op["name"], src=src)
    elif kind == "extents":
        yield from prt.apply_extent_delta(
            int(op["ino"], 16),
            set_map={int(k): tuple(v)
                     for k, v in (op.get("set") or {}).items()},
            del_list=op.get("del") or (),
            clear=bool(op.get("clear")),
            src=src)
    else:
        raise ValueError(f"unknown journal op {kind!r}")


def apply_ops(prt: PRT, ops: List[JournalOp],
              src: Optional[Node] = None, parallel: bool = True) -> SimGen:
    """Apply (checkpoint/replay) journal ops to the base objects.

    Idempotent: ops carry full state, deletes tolerate absence — replaying
    a transaction any number of times converges to the same store state.

    After coalescing, every op in a transaction targets a *distinct* base
    object, so ordering within the transaction is free — the PUTs/DELETEs
    are issued concurrently (``parallel=False`` restores the serial walk,
    one object-store RTT per op).
    """
    final = _coalesce(ops)
    if not parallel or len(final) <= 1:
        for op in final:
            yield from _apply_one(prt, op, src=src)
        return len(final)
    sim = prt.store.sim
    procs = [sim.process(_apply_one(prt, op, src=src), name="ckpt-op")
             for op in final]
    yield sim.all_of(procs)
    return len(final)


class Transaction:
    """A committed (on-storage) journal transaction."""

    __slots__ = ("txid", "dir_ino", "kind", "ops", "decision_key", "seq")

    def __init__(self, txid: str, dir_ino: int, kind: str,
                 ops: List[JournalOp], decision_key: Optional[str] = None,
                 seq: int = -1):
        self.txid = txid
        self.dir_ino = dir_ino
        self.kind = kind  # "update" | "prepare"
        self.ops = ops
        self.decision_key = decision_key
        self.seq = seq

    def to_bytes(self) -> bytes:
        d = {"txid": self.txid, "dir": ino_hex(self.dir_ino),
             "kind": self.kind, "ops": self.ops}
        if self.decision_key:
            d["decision"] = self.decision_key
        return json.dumps(d, separators=(",", ":")).encode()

    @classmethod
    def from_bytes(cls, raw: bytes, seq: int = -1) -> "Transaction":
        d = json.loads(raw)
        return cls(txid=d["txid"], dir_ino=int(d["dir"], 16), kind=d["kind"],
                   ops=d["ops"], decision_key=d.get("decision"), seq=seq)


class _DirJournal:
    """In-memory state of one directory's journal at its current leader."""

    __slots__ = ("dir_ino", "running", "next_seq", "pending_seqs",
                 "commit_lock", "ckpt_lock", "ops_recorded", "ops_committed")

    def __init__(self, sim: Simulator, dir_ino: int):
        self.dir_ino = dir_ino
        self.running: List[JournalOp] = []
        self.next_seq = 0
        # Group-commit bookkeeping: a flush only needs ops recorded *before*
        # it was called to become durable; concurrent flushes share commits.
        self.ops_recorded = 0
        self.ops_committed = 0
        # seqs committed to storage but not yet checkpointed
        self.pending_seqs: List[int] = []
        # Commits (new journal objects) and checkpoints (applying old ones)
        # touch disjoint objects, so they serialize independently — a slow
        # background checkpoint must not block an fsync's commit.
        self.commit_lock = Mutex(sim, name=f"jcommit:{dir_ino:x}")
        self.ckpt_lock = Mutex(sim, name=f"jckpt:{dir_ino:x}")


class JournalManager:
    """All journals of one ArkFS client, plus its commit/checkpoint threads."""

    def __init__(self, sim: Simulator, prt: PRT, params: ArkFSParams,
                 node: Node, client_name: str, fencing: FencingRegistry,
                 token_of: Callable[[int], Tuple[int, int]],
                 on_fenced: Callable[[int], None]):
        self.sim = sim
        self.prt = prt
        self.params = params
        self.node = node
        self.client_name = client_name
        self.journals: Dict[int, _DirJournal] = {}
        self._txn_counter = 0
        self._threads: List = []
        self._stopped = False
        # Epoch fencing. ``fencing`` is the lease service's registry, which
        # the journal stream heads consult before accepting a commit;
        # ``token_of`` maps dir_ino -> the client's current (mgr_epoch,
        # dir_epoch) authority token; ``on_fenced`` tells the client a
        # commit was refused — it has been deposed and must stop leading
        # the directory (which discards the stream, see :meth:`discard`).
        # Pure dictionary state: no check costs a simulation event.
        self.fencing = fencing
        self.token_of = token_of
        self.on_fenced = on_fenced
        self.fencing_enforce = True
        # Commit/checkpoint counters and fan-out observability (how parallel
        # the checkpoint/commit paths actually ran) live in the sim-wide
        # metrics registry, namespaced per client.
        m = Observability.of(sim).metrics.scope(client_name + ".journal")
        self._c_commits = m.counter("commits")
        self._c_checkpoints = m.counter("checkpoints")
        self._c_ckpt_batches = m.counter("ckpt_batches")
        self._c_ckpt_batched_ops = m.counter("ckpt_batched_ops")
        self._c_ckpt_serial_ops = m.counter("ckpt_serial_ops")
        self._c_commit_rounds = m.counter("commit_rounds")
        self._g_ckpt_batch = m.gauge("ckpt_batch")
        self._g_commit_fanout = m.gauge("commit_fanout")
        # (dir_ino, seq) -> committed txn awaiting checkpoint
        self._checkpoint_txns: Dict[Tuple[int, int], Transaction] = {}

    @property
    def commits(self) -> int:
        """Committed transactions (legacy accessor for the registry counter)."""
        return self._c_commits.value

    @property
    def checkpoints(self) -> int:
        return self._c_checkpoints.value

    @property
    def fanout(self) -> Dict[str, int]:
        """Legacy snapshot of the fan-out counters (deprecated shim).

        Previously a live dict mutated in place; same keys, now a
        point-in-time copy backed by the metrics registry."""
        return {
            "ckpt_batches": self._c_ckpt_batches.value,
            "ckpt_batched_ops": self._c_ckpt_batched_ops.value,
            "ckpt_serial_ops": self._c_ckpt_serial_ops.value,
            "ckpt_max_batch": self._g_ckpt_batch.max_value,
            "commit_rounds": self._c_commit_rounds.value,
            "commit_max_fanout": self._g_commit_fanout.max_value,
        }

    # -- lifecycle -----------------------------------------------------------

    def start_threads(self) -> None:
        """Spawn the background commit threads (one pipeline per thread id;
        each also checkpoints what it commits, preserving per-dir order)."""
        for tid in range(self.params.n_commit_threads):
            p = self.sim.process(self._commit_loop(tid),
                                 name=f"{self.client_name}.journal{tid}")
            self._threads.append(p)

    def stop(self) -> None:
        """Abrupt stop (client crash): running transactions are lost, and
        committed-but-unapplied journal objects stay for recovery."""
        self._stopped = True
        for p in self._threads:
            p.interrupt("stop")
        self._threads.clear()

    def _commit_loop(self, tid: int) -> SimGen:
        interval = self.params.journal_commit_interval or 1.0
        try:
            while not self._stopped:
                yield self.sim.timeout(interval)
                dirty = []
                for dir_ino in list(self.journals):
                    if dir_ino % self.params.n_commit_threads != tid:
                        continue
                    dj = self.journals.get(dir_ino)
                    if dj is None or not (dj.running or dj.pending_seqs):
                        continue
                    dirty.append(dj)
                if not dirty:
                    continue
                # Commit every assigned dirty directory in parallel — the
                # journal objects are independent, so one slow directory
                # must not delay the round's other commits by an RTT each.
                self._c_commit_rounds.inc()
                self._g_commit_fanout.track(len(dirty))
                if len(dirty) == 1:
                    yield from self._commit_and_checkpoint(dirty[0])
                else:
                    procs = [
                        self.sim.process(self._commit_and_checkpoint(dj),
                                         name=f"commit:{dj.dir_ino:x}")
                        for dj in dirty
                    ]
                    yield self.sim.all_of(procs)
        except Interrupt:
            return

    # -- recording ------------------------------------------------------------

    def _journal_key(self, dir_ino: int) -> int:
        # Ablation A1: a single shared journal serializes every commit.
        return 0 if self.params.single_journal else dir_ino

    def journal_for(self, dir_ino: int) -> _DirJournal:
        key = self._journal_key(dir_ino)
        dj = self.journals.get(key)
        if dj is None:
            dj = _DirJournal(self.sim, key)
            self.journals[key] = dj
        return dj

    def record(self, dir_ino: int, *ops: JournalOp) -> None:
        """Append ops to the directory's running compound transaction."""
        if self._stopped:
            return
        dj = self.journal_for(dir_ino)
        dj.running.extend(ops)
        dj.ops_recorded += len(ops)

    @property
    def sync_commit(self) -> bool:
        """Ablation A2: commit every op immediately (no 1 s compounding)."""
        return self.params.journal_commit_interval <= 0

    def is_dirty(self, dir_ino: int) -> bool:
        dj = self.journals.get(self._journal_key(dir_ino))
        return bool(dj and (dj.running or dj.pending_seqs))

    def new_txid(self) -> str:
        self._txn_counter += 1
        return f"{self.client_name}-{self._txn_counter:08d}"

    def _note_ckpt_fanout(self, n_ops: int) -> None:
        if n_ops > 1:
            self._c_ckpt_batches.inc()
            self._c_ckpt_batched_ops.inc(n_ops)
            self._g_ckpt_batch.track(n_ops)
        else:
            self._c_ckpt_serial_ops.inc(n_ops)

    # -- commit / checkpoint ------------------------------------------------------

    def _fence_check(self, dir_ino: int) -> Tuple[int, int]:
        """Epoch fence at the journal stream head.

        Returns the commit's fencing token. When a newer authority has been
        granted for the directory the caller's buffered state is a zombie's
        and must not land: the client is told to stop leading (which drops
        the stream) and :class:`StaleEpochError` is raised."""
        token = self.token_of(dir_ino)
        if self.fencing_enforce and not self.fencing.admit(dir_ino, token):
            self.on_fenced(dir_ino)
            raise StaleEpochError(
                f"dir {dir_ino:x}",
                f"commit token {token} below granted authority")
        return token

    def _commit_locked(self, dj: _DirJournal) -> SimGen:
        """Running txn -> durable journal object (the commit thread's job)."""
        if not dj.running:
            return
        token = self._fence_check(dj.dir_ino)
        sp = _span(self.sim, "journal.commit", "journal")
        try:
            ops, dj.running = dj.running, []
            covered = dj.ops_recorded  # everything recorded so far is in ops
            seq = dj.next_seq
            dj.next_seq += 1
            txn = Transaction(self.new_txid(), dj.dir_ino, "update",
                              _coalesce(ops))
            raw = txn.to_bytes()
            jkey = self.prt.key_journal(dj.dir_ino, seq)
            yield from self.prt.store.put(jkey, raw, src=self.node)
        finally:
            sp.close()
        dj.pending_seqs.append(seq)
        dj.ops_committed = covered
        self._c_commits.inc()
        # Independent audit: every commit that actually landed reports its
        # token, whether or not enforcement was consulted.
        self.fencing.audit_commit(dj.dir_ino, token)
        rec = self.sim._recorder
        if rec is not None:
            rec.record("journal.commit", dir=dj.dir_ino, seq=seq,
                       ops=len(ops))
        self._checkpoint_txns[(dj.dir_ino, seq)] = txn

    def _checkpoint_locked(self, dj: _DirJournal) -> SimGen:
        """Apply committed txns to the base objects and invalidate them
        (the checkpoint thread's job), oldest first."""
        while dj.pending_seqs:
            seq = dj.pending_seqs[0]
            txn = self._checkpoint_txns.get((dj.dir_ino, seq))
            if txn is None:
                break
            sp = _span(self.sim, "journal.ckpt", "journal")
            try:
                n = yield from apply_ops(self.prt, txn.ops, src=self.node)
                self._note_ckpt_fanout(n)
                # The invalidating DELETE must stick: a silently-skipped one
                # leaves a stale journal object that a later leader (whose
                # seq counter restarts at 0) would replay over newer state.
                # Transient failures are retried beneath the store surface;
                # only true absence passes.
                try:
                    yield from self.prt.store.delete(
                        self.prt.key_journal(dj.dir_ino, seq), src=self.node)
                except NoSuchKey:
                    pass
            finally:
                sp.close()
            dj.pending_seqs.pop(0)
            del self._checkpoint_txns[(dj.dir_ino, seq)]
            self._c_checkpoints.inc()

    def _commit_and_checkpoint(self, dj: _DirJournal) -> SimGen:
        req = yield from dj.commit_lock.acquire()
        try:
            yield from self._commit_locked(dj)
        except StaleEpochError:
            # Background commit raced a takeover: a newer authority exists
            # for this directory (our lease has lapsed); the fence check
            # already had the client drop the stream.
            pass
        finally:
            dj.commit_lock.release(req)
        yield from self._bg_checkpoint(dj)

    def _bg_checkpoint(self, dj: _DirJournal) -> SimGen:
        req = yield from dj.ckpt_lock.acquire()
        try:
            yield from self._checkpoint_locked(dj)
        finally:
            dj.ckpt_lock.release(req)

    def flush(self, dir_ino: int, full: bool = False) -> SimGen:
        """Make a directory's modifications durable (fsync semantics).

        Committing the compound transaction to the journal object is all
        durability requires; the checkpoint to base objects proceeds in the
        background unless ``full=True`` (lease hand-off / release, which
        must leave the journal empty)."""
        dj = self.journals.get(self._journal_key(dir_ino))
        if dj is None:
            return
        # Group commit: this flush is satisfied once every op recorded
        # before it was issued is durable. While another flush's commit is
        # in flight, wait on the lock and re-check — a burst of concurrent
        # fsyncs on one directory shares one or two journal PUTs instead of
        # serializing one PUT each.
        target = dj.ops_recorded
        while dj.ops_committed < target:
            req = yield from dj.commit_lock.acquire()
            try:
                if dj.ops_committed < target:
                    yield from self._commit_locked(dj)
            finally:
                dj.commit_lock.release(req)
        if full:
            yield from self._bg_checkpoint(dj)
        elif dj.pending_seqs:
            self.sim.process(self._bg_checkpoint(dj),
                             name=f"ckpt:{dj.dir_ino:x}")

    def flush_all(self, full: bool = False) -> SimGen:
        """Flush every journal; directories flush in parallel — that is the
        point of per-directory journaling ("multiple journals allow
        parallel commits")."""
        dirs = list(self.journals)
        if not dirs:
            return
        if len(dirs) == 1:
            yield from self.flush(dirs[0], full=full)
            return
        procs = [self.sim.process(self.flush(d, full=full),
                                  name=f"flush:{d:x}") for d in dirs]
        yield self.sim.all_of(procs)

    def drop(self, dir_ino: int) -> None:
        """Forget a fully flushed journal (clean release: the next leader
        gets a no-recovery grant, so nothing may be left behind)."""
        if self.is_dirty(dir_ino) and not self.params.single_journal:
            raise RuntimeError("dropping a dirty journal")
        self.discard(dir_ino)

    def discard(self, dir_ino: int) -> List[int]:
        """Forget a directory's journal stream: its leader stops leading.

        After a full flush there is nothing to lose. Otherwise the stream
        is a zombie's (deposed, lapsed): its never-acknowledged buffered
        ops are dropped — the same outcome as the leader having crashed,
        which semantically it has — while already-durable journal objects
        stay on storage for the new authority's replay. Returns the inos
        whose ``put_inode`` records were dropped, so the caller can drop
        the cached data of files that now never existed."""
        if self.params.single_journal:
            return []  # the shared journal outlives individual directories
        dj = self.journals.pop(dir_ino, None)
        if dj is None:
            return []
        lost = [int(op["inode"]["ino"], 16) for op in dj.running
                if op["op"] == "put_inode"]
        if dj.running or dj.pending_seqs:
            rec = self.sim._recorder
            if rec is not None:
                rec.record("journal.fenced", dir=dir_ino)
        dj.running.clear()
        dj.ops_committed = dj.ops_recorded
        for seq in dj.pending_seqs:
            self._checkpoint_txns.pop((dir_ino, seq), None)
        dj.pending_seqs.clear()
        return lost

    # -- two-phase commit (cross-directory RENAME) ----------------------------------

    def prepare(self, dir_ino: int, txid: str, ops: List[JournalOp],
                decision_key: str) -> SimGen:
        """Force-commit a PREPARE transaction for this participant.

        Returns the journal seq so the participant can finish it later.
        Any buffered running ops are committed first to preserve ordering.
        """
        dj = self.journal_for(dir_ino)
        yield from self._commit_and_checkpoint(dj)  # drain older state
        req = yield from dj.commit_lock.acquire()
        try:
            token = self._fence_check(dir_ino)
            seq = dj.next_seq
            dj.next_seq += 1
            txn = Transaction(txid, dir_ino, "prepare", _coalesce(ops),
                              decision_key=decision_key)
            raw = txn.to_bytes()
            jkey = self.prt.key_journal(dir_ino, seq)
            yield from self.prt.store.put(jkey, raw, src=self.node)
            self._c_commits.inc()
            self.fencing.audit_commit(dir_ino, token)
            return seq
        finally:
            dj.commit_lock.release(req)

    def finish_prepared(self, dir_ino: int, seq: int, ops: List[JournalOp],
                        commit: bool) -> SimGen:
        """Checkpoint (commit=True) or discard (commit=False) a prepared txn."""
        dj = self.journal_for(dir_ino)
        req = yield from dj.ckpt_lock.acquire()
        try:
            if commit:
                n = yield from apply_ops(self.prt, ops, src=self.node)
                self._note_ckpt_fanout(n)
                self._c_checkpoints.inc()
            try:
                yield from self.prt.store.delete(
                    self.prt.key_journal(dir_ino, seq), src=self.node)
            except NoSuchKey:
                pass
        finally:
            dj.ckpt_lock.release(req)
