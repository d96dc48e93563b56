"""Read/write leases on file data (Section III-D).

Unlike metatable leases (issued by the lease manager), read/write leases on
a file's data are issued by the leader of the file's parent directory.
Every opener starts with a shared read lease and may cache data objects.
The first write upgrades to an exclusive write lease if nobody else holds a
lease; otherwise the leader broadcasts cache-flush requests and switches the
file to *direct* mode, where clients bypass their caches and perform I/O
straight against object storage.

A per-file version number lets clients that missed a revocation broadcast
(their lease had lapsed) detect staleness on re-grant and invalidate their
cache instead of serving stale bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..sim.engine import SimGen, Simulator
from ..sim.network import NodeDown

__all__ = ["FileLeaseGrant", "FileLeaseService", "READ", "WRITE", "DIRECT"]

READ = "r"
WRITE = "w"
DIRECT = "direct"


@dataclass(frozen=True)
class FileLeaseGrant:
    ino: int
    mode: str           # "r", "w", or "direct"
    version: int
    expires_at: float


@dataclass
class _FileState:
    holders: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    version: int = 0
    direct: bool = False


class FileLeaseService:
    """Leader-side lease table for the files in directories this client leads.

    ``revoke_cb(holder_name, ino, size)`` is provided by the owning
    client: the holder flushes and drops its cached ``ino`` and expires
    its lease (locally for the leader itself, by RPC for remote holders).
    ``size`` is a truncate's new size (else None), which the holder's open
    file takes.
    """

    def __init__(self, sim: Simulator, lease_period: float,
                 revoke_cb: Callable[[str, int, Optional[int]], SimGen]):
        self.sim = sim
        self.lease_period = lease_period
        self.revoke_cb = revoke_cb
        self.files: Dict[int, _FileState] = {}
        self.stats = {"grants": 0, "upgrades": 0, "revocations": 0,
                      "direct_demotions": 0}

    def _state(self, ino: int) -> _FileState:
        st = self.files.get(ino)
        if st is None:
            st = _FileState()
            self.files[ino] = st
        return st

    def _prune(self, st: _FileState, ino: Optional[int] = None) -> SimGen:
        """Drop expired holders; expired *writers* are revoked (flushed)
        first so their write-back data reaches storage before anyone else
        is granted a lease over it."""
        now = self.sim.now
        for c, (mode, exp) in list(st.holders.items()):
            if exp > now:
                continue
            if mode == WRITE and ino is not None:
                self.stats["revocations"] += 1
                rec = self.sim._recorder
                if rec is not None:
                    rec.record("lease.revoke", ino=ino, holder=c,
                               expired=True)
                try:
                    yield from self.revoke_cb(c, ino, None)
                except NodeDown:
                    pass  # crashed writer: directory-lease fencing covers it
            del st.holders[c]
        if st.direct and not st.holders:
            # Everyone left: the file can be cached again (fresh version).
            st.direct = False
            st.version += 1

    def _revoke_all(self, st: _FileState, ino: int, but: str,
                    size: Optional[int] = None) -> SimGen:
        rec = self.sim._recorder
        for holder in list(st.holders):
            if holder == but:
                continue
            self.stats["revocations"] += 1
            if rec is not None:
                rec.record("lease.revoke", ino=ino, holder=holder)
            try:
                yield from self.revoke_cb(holder, ino, size)
            except NodeDown:
                # Dead holder: its lease will lapse; fencing at the
                # directory-lease level guarantees it cannot resurface
                # with stale cached data past expiry.
                pass
            mode, exp = st.holders.get(holder, (None, 0.0))
            if mode is not None:
                st.holders[holder] = (READ, exp)  # writers demoted

    # -- the protocol -------------------------------------------------------------

    def revoke_holders(self, ino: int, size: Optional[int] = None) -> SimGen:
        """Make every holder flush and drop ``ino`` (truncate to ``size``,
        unlink, leases moving elsewhere), then bump its version so a holder
        that missed the broadcast invalidates on its next grant."""
        st = self.files.get(ino)
        if st is None:
            return
        yield from self._revoke_all(st, ino, but="", size=size)
        st.version += 1

    def acquire(self, ino: int, client: str, mode: str) -> SimGen:
        """Grant (or renew) a lease. Yields for revocation broadcasts."""
        if mode not in (READ, WRITE):
            raise ValueError(f"bad lease mode {mode!r}")
        st = self._state(ino)
        yield from self._prune(st, ino)
        exp = self.sim.now + self.lease_period
        self.stats["grants"] += 1

        if st.direct:
            st.holders[client] = (READ, exp)
            return FileLeaseGrant(ino, DIRECT, st.version, exp)

        if mode == READ:
            # Readers may share; an active writer must flush first so the
            # reader never sees stale storage.
            writers = [c for c, (m, _e) in st.holders.items()
                       if m == WRITE and c != client]
            if writers:
                yield from self._revoke_all(st, ino, but=client)
            cur = st.holders.get(client)
            kept = WRITE if cur and cur[0] == WRITE else READ
            st.holders[client] = (kept, exp)
            return FileLeaseGrant(ino, kept, st.version, exp)

        # WRITE upgrade path.
        others = [c for c in st.holders if c != client]
        if not others:
            self.stats["upgrades"] += 1
            st.version += 1
            st.holders[client] = (WRITE, exp)
            return FileLeaseGrant(ino, WRITE, st.version, exp)
        # Conflict: flush everyone, go direct (Section III-D).
        yield from self._revoke_all(st, ino, but=client)
        st.direct = True
        st.version += 1
        self.stats["direct_demotions"] += 1
        st.holders[client] = (READ, exp)
        return FileLeaseGrant(ino, DIRECT, st.version, exp)

    def forget_file(self, ino: int) -> None:
        """File deleted: drop its lease state."""
        self.files.pop(ino, None)

    def holder_count(self, ino: int) -> int:
        st = self.files.get(ino)
        if st is None:
            return 0
        now = self.sim.now
        return sum(1 for _m, exp in st.holders.values() if exp > now)

    def is_direct(self, ino: int) -> bool:
        st = self.files.get(ino)
        return bool(st and st.direct)
