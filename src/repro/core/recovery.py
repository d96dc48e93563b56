"""Crash recovery (Section III-E).

When a client acquires a directory's lease and finds transactions still in
the per-directory journal, the previous leader crashed before checkpointing.
The new leader replays the journal in sequence order:

* ``update`` transactions are applied unconditionally (they were committed —
  i.e. durable — before the crash; application is idempotent),
* ``prepare`` transactions (2PC rename participants) are resolved against
  their decision record: if the coordinator managed to create a "commit"
  decision the ops are applied; otherwise the recovering leader *writes an
  abort decision itself* with an atomic exclusive create, so a coordinator
  racing with recovery can never flip the outcome afterwards.

Journal objects are deleted as they are resolved, leaving the directory
clean for the new leader's metatable load.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..objectstore.errors import NoSuchKey
from ..sim.engine import SimGen
from ..sim.network import Node
from .journal import Transaction, apply_ops
from .prt import PRT

__all__ = ["scan_journal", "resolve_decision", "recover_directory",
           "roll_forward_split"]

DECISION_COMMIT = b"commit"
DECISION_ABORT = b"abort"


def scan_journal(prt: PRT, dir_ino: int,
                 src: Optional[Node] = None) -> SimGen:
    """Read every committed transaction of a directory, in seq order.

    The LIST's keys are read in one batch. Returns ``[(seq, Transaction),
    ...]``. Missing and unparseable (torn) journal objects are skipped: an
    interrupted journal PUT never made its transaction durable in the
    first place.
    """
    prefix = prt.key_journal_prefix(dir_ino)
    keys = yield from prt.store.list(prefix, src=src)
    raws = yield from prt.store.get_many(keys, src=src)
    txns: List[Tuple[int, Transaction]] = []
    for key, raw in zip(keys, raws):  # keys sort by zero-padded seq
        if raw is None:
            continue
        seq = int(key[len(prefix):])
        try:
            txns.append((seq, Transaction.from_bytes(raw, seq=seq)))
        except (ValueError, KeyError):
            continue
    return txns


def resolve_decision(prt: PRT, decision_key: str,
                     src: Optional[Node] = None) -> SimGen:
    """Determine a prepared transaction's fate; forces "abort" if undecided."""
    try:
        value = yield from prt.store.get(decision_key, src=src)
        return value == DECISION_COMMIT
    except NoSuchKey:
        pass
    won = yield from prt.store.put_if_absent(decision_key, DECISION_ABORT,
                                             src=src)
    if won:
        return False
    value = yield from prt.store.get(decision_key, src=src)
    return value == DECISION_COMMIT


def recover_directory(prt: PRT, dir_ino: int,
                      src: Optional[Node] = None) -> SimGen:
    """Bring a crashed directory up to date; returns counts for telemetry.

    Idempotent: re-running (e.g. the recovering leader itself crashes
    mid-replay) converges to the same state, because ops carry full state
    and decision records are immutable once created.
    """
    txns = yield from scan_journal(prt, dir_ino, src=src)
    replayed = aborted = 0
    for seq, txn in txns:
        if txn.kind == "update":
            yield from apply_ops(prt, txn.ops, src=src)
            replayed += 1
        elif txn.kind == "prepare":
            commit = yield from resolve_decision(prt, txn.decision_key, src=src)
            if commit:
                yield from apply_ops(prt, txn.ops, src=src)
                replayed += 1
            else:
                aborted += 1
        try:
            yield from prt.store.delete(prt.key_journal(dir_ino, seq), src=src)
        except NoSuchKey:
            pass
    return {"replayed": replayed, "aborted": aborted, "scanned": len(txns)}


def roll_forward_split(prt: PRT, smap, src: Optional[Node] = None) -> SimGen:
    """Complete an interrupted directory split (idempotent roll-forward).

    Called by whoever next wins the parent directory's lease and finds the
    shard map still in state ``"splitting"``: the parent range is frozen
    (the splitting map is written only after the parent's journal is fully
    checkpointed and new operations are fenced off), so copying every
    parent-range dentry to its hash-routed shard range, deleting the
    parent-range originals, and PUTting the map in state ``"active"`` is
    safe to re-run from any crash point. The activation PUT is the atomic
    commit point. Returns the active map.
    """
    dentries = yield from prt.list_dentries(smap.dir_ino, src=src)
    for d in dentries:
        yield from prt.put_dentry(smap.route(d.name), d, src=src)
    for d in dentries:
        yield from prt.delete_dentry(smap.dir_ino, d.name, src=src)
    active = smap.with_state(smap.ACTIVE)
    yield from prt.put_shard_map(active, src=src)
    return active
