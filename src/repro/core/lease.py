"""Directory lease management (Section III-B).

The lease service issues per-directory leases first-come-first-served.
The holder of a directory's lease (its *directory leader*) is the only party
allowed to modify that directory's metadata; other clients are redirected to
the leader. Re-acquisition by the same leader before expiry is an
*extension* — the leader's metatable stays valid and need not be reloaded.

The service is a ring of one or more managers
(:class:`LeaseManagerCluster`; the paper runs one and leaves more as future
work) that hash-partitions directories over its members. Each ring slot is
a *range* whose authority carries a monotonic **epoch**, starting at 1.
Every grant is stamped with a ``(mgr_epoch, dir_epoch)`` fencing token, the
ring's :class:`FencingRegistry` tracks the highest token ever granted per
directory, and journal streams reject any commit carrying a lower token — a
deposed leader (a "zombie": still alive, believes its lease valid) can
therefore never overwrite state the new authority owns.

Fault handling (Section III-E):

* If a lease expires without a clean release, the next grant carries
  ``needs_recovery`` and is *fenced*: the manager makes requesters wait one
  full lease period past the expiry so read/write leases issued by the dead
  leader have lapsed, then lets the new leader replay the journal; other
  clients wait until the new leader reports recovery complete.
* If a manager dies, the ring successor takes its ranges over at
  ``epoch + 1``; when it restarts it reclaims its range the same way. Either
  way the range refuses grants for one lease period (so no two clients can
  ever believe they lead the same directory) and the first grant of each
  directory under the new epoch replays its journal. Only the affected
  range waits — which for a ring of one is every directory.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..posix.errors import IOFailure
from ..sim.engine import SimGen, Simulator
from ..sim.network import Node
from .params import ArkFSParams

__all__ = ["LeaseGrant", "LeaseManager", "LeaseManagerCluster",
           "LeaseRedirect", "LeaseWait", "FencingRegistry",
           "StaleEpochError"]


class StaleEpochError(IOFailure):
    """A journal commit (or lease-derived action) carried a fencing token
    below the highest authority already granted for the directory — the
    issuer has been deposed and its write must not land."""


@dataclass(frozen=True)
class LeaseGrant:
    """A successful acquire/extend."""

    dir_ino: int
    expires_at: float
    epoch: int
    fresh: bool            # True: must (re)load the metatable from storage
    needs_recovery: bool   # True: scan/replay the journal before serving
    mgr_epoch: int = 1     # range-authority epoch the grant was issued under


@dataclass(frozen=True)
class LeaseRedirect:
    """Someone else leads this directory — send them your requests."""

    dir_ino: int
    leader: str            # node name of the current leader
    expires_at: float


@dataclass(frozen=True)
class LeaseWait:
    """Try again later (fencing or recovery in progress)."""

    dir_ino: int
    retry_at: float
    reason: str


@dataclass
class _LeaseState:
    holder: Optional[str] = None
    expires_at: float = 0.0
    epoch: int = 0
    clean: bool = True          # released (or never held) cleanly
    recovering_by: Optional[str] = None
    fence_until: float = 0.0
    seen_epoch: int = 0         # range epoch this state was last valid under
    takeover: bool = False      # next grant must replay the journal


class FencingRegistry:
    """The per-directory fencing-token high-water mark.

    Models the check each journal stream head performs on a commit: pure
    dictionary state, zero simulation events — installing it changes no
    timings. Managers feed it the token of every grant; journal managers
    ask :meth:`admit` before accepting a commit and report every commit
    that actually landed to :meth:`audit_commit`, which is the independent
    no-stale-epoch-commit auditor the crashcheck sweep drains (it keeps
    working even when a seeded bug disables enforcement).
    """

    def __init__(self) -> None:
        #: dir_ino -> highest (mgr_epoch, dir_epoch) ever granted
        self.max_granted: Dict[int, Tuple[int, int]] = {}
        self.rejected = 0
        self.commits = 0
        self.breaches: List[str] = []

    def note_grant(self, dir_ino: int, token: Tuple[int, int]) -> None:
        cur = self.max_granted.get(dir_ino)
        if cur is None or token > cur:
            self.max_granted[dir_ino] = token

    def admit(self, dir_ino: int, token: Tuple[int, int]) -> bool:
        """May a commit stamped ``token`` land? Tokens compare
        lexicographically; anything below the highest grant is a zombie
        write (new grants are only issued after the old lease could no
        longer be honestly believed valid)."""
        cur = self.max_granted.get(dir_ino)
        if cur is not None and token < cur:
            self.rejected += 1
            return False
        return True

    def audit_commit(self, dir_ino: int, token: Tuple[int, int]) -> None:
        self.commits += 1
        cur = self.max_granted.get(dir_ino)
        if cur is not None and token < cur:
            self.breaches.append(
                f"stale-epoch commit applied to dir {dir_ino:x}: "
                f"token={token} < max granted={cur}")

    def drain_breaches(self) -> List[str]:
        out, self.breaches = self.breaches, []
        return out


class LeaseManager:
    """One member of the lease-manager ring.

    Runs on ``node``; clients reach it through RPC methods ``lease.acquire``,
    ``lease.release`` and ``lease.recovered``. All handlers are cheap
    ("acquiring/extending a lease is a very lightweight operation").
    ``LeaseManager(sim, node, params)`` on its own is a ring of one.
    """

    def __init__(self, sim: Simulator, node: Node, params: ArkFSParams,
                 cluster: Optional["LeaseManagerCluster"] = None,
                 index: int = 0):
        self.sim = sim
        self.node = node
        self.params = params
        self.cluster = cluster or LeaseManagerCluster(sim, [node], params,
                                                      managers=[self])
        self.index = index
        self.leases: Dict[int, _LeaseState] = {}
        self.stats = {"acquire": 0, "extend": 0, "redirect": 0, "release": 0,
                      "wait": 0, "recovery_grants": 0}
        node.register("lease.acquire", self._h_acquire)
        node.register("lease.release", self._h_release)
        node.register("lease.recovered", self._h_recovered)

    # -- the ring, seen from one member ----------------------------------------

    @property
    def fencing(self) -> FencingRegistry:
        return self.cluster.fencing

    def node_for(self, dir_ino: int) -> Node:
        return self.cluster.node_for(dir_ino)

    def crash(self) -> None:
        self.cluster.crash_manager(self.index)

    def restart(self) -> None:
        self.cluster.restart_manager(self.index)

    # -- handlers ------------------------------------------------------------------

    def _work(self) -> SimGen:
        return self.node.cpu.use(self.params.lease_op_cpu)

    def _grant(self, dir_ino: int, st: _LeaseState, rs: "_RangeState",
               fresh: bool, needs_recovery: bool) -> LeaseGrant:
        self.cluster.fencing.note_grant(dir_ino, (rs.epoch, st.epoch))
        return LeaseGrant(dir_ino, st.expires_at, st.epoch, fresh=fresh,
                          needs_recovery=needs_recovery, mgr_epoch=rs.epoch)

    def _h_acquire(self, dir_ino: int, client: str) -> SimGen:
        yield from self._work()
        now = self.sim.now
        rs = self.cluster.range_for(dir_ino)
        if rs.owner != self.index:
            # Deposed (or mis-routed): the client must re-resolve the
            # range owner and retry there.
            self.stats["wait"] += 1
            return LeaseWait(dir_ino, now + self.params.lease_retry_delay,
                             "not-range-owner")
        if now < rs.fence_until:
            # Per-range fence after a takeover/restart: leases issued by
            # the previous authority may still be live. Only THIS range
            # waits — the manager's other ranges keep serving.
            self.stats["wait"] += 1
            return LeaseWait(dir_ino, rs.fence_until, "range-fenced")
        st = self.leases.setdefault(dir_ino, _LeaseState())
        if st.seen_epoch < rs.epoch:
            # First touch of this directory under a new range epoch: lease
            # state predating the takeover is void (the range fence already
            # let its holders lapse), and the new authority must replay the
            # journal before serving — unless the range never failed over
            # (epoch 1), in which case this is just a brand-new state.
            st.holder = None
            st.expires_at = 0.0
            st.clean = True
            st.recovering_by = None
            st.fence_until = 0.0
            st.takeover = rs.epoch > 1
            st.seen_epoch = rs.epoch

        if st.recovering_by is not None:
            if st.recovering_by == client:
                # The recovering leader re-extends its claim.
                st.expires_at = now + self.params.lease_period
                return self._grant(dir_ino, st, rs, fresh=False,
                                   needs_recovery=True)
            if st.expires_at <= now:
                # The recovering leader's own lease lapsed: it crashed
                # mid-replay. Void the claim and fall through to the
                # expired-holder path below, which fences out its file
                # leases and hands recovery to the next acquirer (replay
                # is idempotent). Without this, a recoverer dying between
                # its grant and ``lease.recovered`` wedges the directory
                # forever behind a wait deadline that is already past.
                st.recovering_by = None
            else:
                self.stats["wait"] += 1
                return LeaseWait(dir_ino, st.expires_at,
                                 "recovery-in-progress")

        if st.holder is not None and st.expires_at > now:
            if st.holder == client:
                # Extension: metatable remains valid.
                st.expires_at = now + self.params.lease_period
                self.stats["extend"] += 1
                return self._grant(dir_ino, st, rs, fresh=False,
                                   needs_recovery=False)
            self.stats["redirect"] += 1
            return LeaseRedirect(dir_ino, st.holder, st.expires_at)

        # Lease is free or expired.
        crashed = st.holder is not None and not st.clean
        if crashed:
            fence = st.expires_at + self.params.lease_period
            if now < fence:
                # Fencing: let the dead leader's file read/write leases lapse.
                self.stats["wait"] += 1
                return LeaseWait(dir_ino, fence, "fencing-crashed-leader")
        needs_recovery = crashed or st.takeover
        st.takeover = False
        st.holder = client
        st.epoch += 1
        st.expires_at = now + self.params.lease_period
        st.clean = False  # held; only a release makes it clean again
        self.stats["acquire"] += 1
        if needs_recovery:
            st.recovering_by = client
            self.stats["recovery_grants"] += 1
            return self._grant(dir_ino, st, rs, fresh=True,
                               needs_recovery=True)
        # A lapsed-but-cleanly-flushed previous holder still reloads: its
        # in-memory metatable "might be out-of-date" (Section III-B) —
        # unless it never lost the lease (extension handled above).
        return self._grant(dir_ino, st, rs, fresh=True, needs_recovery=False)

    def _h_release(self, dir_ino: int, client: str, clean: bool) -> SimGen:
        yield from self._work()
        if self.cluster.range_for(dir_ino).owner != self.index:
            return False  # deposed: this manager's state for the dir is void
        st = self.leases.get(dir_ino)
        if st is None or st.holder != client:
            return False
        st.holder = None if clean else st.holder
        st.clean = clean
        st.expires_at = self.sim.now if clean else st.expires_at
        st.recovering_by = None
        self.stats["release"] += 1
        return True

    def _h_recovered(self, dir_ino: int, client: str) -> SimGen:
        """The recovering leader finished journal replay; renew its lease."""
        yield from self._work()
        if self.cluster.range_for(dir_ino).owner != self.index:
            return False
        st = self.leases.get(dir_ino)
        if st is None or st.recovering_by != client:
            return False
        st.recovering_by = None
        st.clean = False
        st.holder = client
        st.expires_at = self.sim.now + self.params.lease_period
        return True

    # -- introspection (tests) ---------------------------------------------------

    def holder_of(self, dir_ino: int) -> Optional[str]:
        st = self.leases.get(dir_ino)
        if st is None or st.expires_at <= self.sim.now:
            return None
        return st.holder


@dataclass
class _RangeState:
    """Authority state of one ring slot of the cluster's hash space."""

    index: int              # ring slot == home manager index
    owner: int              # manager currently serving the range
    epoch: int = 1          # monotonic authority epoch — never reused
    fence_until: float = 0.0


class LeaseManagerCluster:
    """The lease service: a ring of N >= 1 managers.

    The paper runs one manager and names the rest as future work: "A single
    lease manager may become a performance bottleneck in certain situations
    and it would be beneficial to implement distributed coordination using
    a cluster of lease managers." (Section III-B.) One is N = 1 here, not a
    different code path.

    Directories are hash-partitioned across the managers; a directory's
    lease state lives at exactly one manager, so no agreement protocol
    between managers is needed — each runs the single-manager semantics
    (FCFS, fencing, recovery coordination) for its range. Range authority
    is epoch-fenced: failover/restart bumps the range epoch and fences only
    that range for one lease period, and every grant carries a ``(range
    epoch, directory epoch)`` token the journal layer checks commits
    against (:class:`FencingRegistry`).
    """

    def __init__(self, sim: Simulator, nodes, params: ArkFSParams,
                 managers: Optional[List[LeaseManager]] = None):
        if not nodes:
            raise ValueError("need at least one manager node")
        self.sim = sim
        self.params = params
        self.fencing = FencingRegistry()
        self.managers = managers or [
            LeaseManager(sim, node, params, cluster=self, index=i)
            for i, node in enumerate(nodes)]
        self.ranges = [_RangeState(index=i, owner=i)
                       for i in range(len(nodes))]
        self._down: set = set()

    # -- routing ---------------------------------------------------------------

    def range_index(self, dir_ino: int) -> int:
        n = len(self.managers)
        if n == 1:
            return 0
        return zlib.crc32(f"{dir_ino:032x}".encode()) % n

    def range_for(self, dir_ino: int) -> _RangeState:
        return self.ranges[self.range_index(dir_ino)]

    def shard_of(self, dir_ino: int) -> LeaseManager:
        return self.managers[self.range_for(dir_ino).owner]

    def node_for(self, dir_ino: int) -> Node:
        return self.shard_of(dir_ino).node

    def holder_of(self, dir_ino: int) -> Optional[str]:
        return self.shard_of(dir_ino).holder_of(dir_ino)

    # -- failover --------------------------------------------------------------

    def _successor(self, idx: int) -> int:
        """First live manager scanning the ring from ``idx + 1``, wrapping
        all the way around to ``idx`` itself — when the dead owner's ring
        predecessors are all down too, the range's live home index (or even
        a lone surviving owner, at a bumped epoch) is still a valid heir."""
        n = len(self.managers)
        for k in range(1, n + 1):
            j = (idx + k) % n
            if j not in self._down:
                return j
        raise ValueError("no live successor manager")

    def _hand_range(self, rs: _RangeState, owner: int) -> None:
        """New authority for a range: next epoch, behind a fence window of
        one lease period, by which time every lease the old authority
        granted has lapsed. The first acquire of each directory under the
        new epoch is a recovery grant (journal replay)."""
        rs.epoch += 1
        rs.owner = owner
        rs.fence_until = self.sim.now + self.params.lease_period

    def fail_over(self, range_index: int) -> int:
        """Hand range ``range_index`` to the ring successor at epoch + 1.
        Returns the new owner's index."""
        rs = self.ranges[range_index]
        succ = self._successor(rs.owner if rs.owner not in self._down
                               else range_index)
        self._hand_range(rs, succ)
        return succ

    def crash_manager(self, idx: int) -> None:
        """Crash one manager node and fail over every range it served.
        With no live manager left the ranges stay put, unserved, until a
        restart reclaims them."""
        self._down.add(idx)
        self.managers[idx].node.crash()
        if len(self._down) < len(self.managers):
            for rs in self.ranges:
                if rs.owner == idx:
                    self.fail_over(rs.index)

    def restart_manager(self, idx: int) -> None:
        """The one restart path: the manager reclaims its home range at a
        new epoch. A manager that was down comes back with empty state and
        also re-opens, the same way, any range nobody could take from it
        meanwhile. Only those ranges are fenced (for one lease period); the
        ring's other ranges keep serving throughout — for a ring of one,
        that is "refuse all grants for one lease period"."""
        m = self.managers[idx]
        was_down = idx in self._down
        if was_down:
            m.node.restart()
            self._down.discard(idx)
            m.leases.clear()
        for rs in self.ranges:
            if rs.index == idx or (was_down and rs.owner == idx):
                self._hand_range(rs, idx)

    def crash(self) -> None:
        """The whole service at once: nobody is left to fail over to."""
        self._down.update(range(len(self.managers)))
        for m in self.managers:
            m.node.crash()

    def restart(self) -> None:
        for i in range(len(self.managers)):
            self.restart_manager(i)

    @property
    def stats(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for m in self.managers:
            for k, v in m.stats.items():
                out[k] = out.get(k, 0) + v
        return out
