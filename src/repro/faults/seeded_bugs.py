"""Deliberate recovery bugs that prove the crash sweep has teeth.

Each entry of :data:`SEEDED_BUGS` patches a freshly built cluster
(``bug(cluster)``) before the workload runs. A checker that cannot fail
is not a checker: the test suite sweeps every bug here and requires the
sweep to catch it.
"""

from __future__ import annotations

from typing import Callable, Dict, List

__all__ = ["SEEDED_BUGS"]


def _bug_lost_commit(cluster) -> None:
    """Mutations applied locally but never committed: the victim's journal
    manager reports durability without writing the journal object. Every
    'durable' promise it makes is a lie the checker must catch."""
    victim = cluster.client(0)
    jm = victim.journal

    def lying_commit(dj):
        dj.running = []
        dj.ops_committed = dj.ops_recorded
        yield victim.sim.timeout(0)

    jm._commit_locked = lying_commit


def _bug_pretend_fsync(cluster) -> None:
    """Data mutations applied locally but never written back: the victim's
    cache marks dirty entries clean without the store PUT, so fsync returns
    success while the bytes exist only in volatile memory. Fault-free runs
    look fine (the victim reads its own cache); the durability milestones
    of any crash point after an 'fsync' expose it."""
    victim = cluster.client(0)
    cache = victim.cache

    def lying_writeback(ino, entry):
        entry.dirty = False
        yield victim.sim.timeout(0)

    cache._writeback = lying_writeback


def _bug_fence_blind(cluster) -> None:
    """A zombie leader: the victim's journal manager skips the fencing
    admit check AND the victim believes every lease it is granted lasts
    forever, so after a range fails over it keeps committing under its
    stale ``(mgr_epoch, dir_epoch)`` token. The independent
    :class:`~repro.core.lease.FencingRegistry` audit must flag those
    commits even with in-path enforcement disabled."""
    victim = cluster.client(0)
    victim.journal.fencing_enforce = False
    real_acquire = victim._acquire_dir

    def immortal_acquire(dir_ino):
        kind, who = yield from real_acquire(dir_ino)
        if kind == "local":
            who.lease_expires += 1000.0
        return kind, who

    victim._acquire_dir = immortal_acquire


def _bug_tier_drain_reorder(cluster) -> None:
    """Drain bookkeeping ahead of durability: the tier's cold-PUT leg holds
    each drain batch back and only flushes the *previous* one, so every
    batch is marked clean (and the fsync barrier returns) one round before
    its bytes reach cold. Fault-free runs look fine (reads hit the hot
    copy); a crash that loses the hot tier loses the last 'drained' batch,
    which the durability milestones must expose."""
    store = cluster.store  # the TieredObjectStore (unwrapped by design)
    real = store._drain_cold_put
    pending: List[list] = []

    def reordered(items, src):
        pending.append(list(items))
        if len(pending) > 1:
            yield from real(pending.pop(0), src)
        else:
            yield store.sim.timeout(0)

    store._drain_cold_put = reordered


SEEDED_BUGS: Dict[str, Callable] = {
    "lost-commit": _bug_lost_commit,
    "pretend-fsync": _bug_pretend_fsync,
    "fence-blind": _bug_fence_blind,
    "tier-drain-reorder": _bug_tier_drain_reorder,
}
