"""The client built when directory sharding is on (``shards_enabled``): the
client side of the elastic metadata plane (DESIGN §11; split protocol in
:mod:`repro.core.shards`). A plain ArkFSClient has no shard state at all.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Optional, Sequence, Tuple

from ..objectstore.errors import TransientError
from ..posix.errors import FSError
from ..posix.types import FileType
from ..sim.engine import Interrupt, SimGen
from ..sim.network import MessageDropped, NodeDown
from .client import ArkFSClient
from .recovery import roll_forward_split
from .shards import ShardMap, ShardRange, make_ranges
from .types import ino_hex

__all__ = ["ShardedClient"]


class ShardedClient(ArkFSClient):
    """A client that splits hot directories into hash-ranged shards; shard
    leases go to ``peers``, the population by name (so restarts keep it)."""

    def __init__(self, *args: Any, peers: Sequence[str] = (), **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.peers = peers
        self._shard_maps: Dict[int, ShardMap] = {}    # parent ino -> map
        self._shard_home: Dict[int, Tuple[int, int]] = {}  # shard -> (parent, home)
        self._split_busy: Dict[int, Any] = {}   # dir ino -> split gate
        self._splitters: Dict[int, Any] = {}    # dir ino -> split process
        self._dir_inflight: Dict[int, int] = {}

    def _run_op(self, opname: str, kwargs: Dict[str, Any]) -> SimGen:
        """Behind the split gate, counted in flight for the splitter to
        drain. A forwarded ``shard_ctx`` names a shard's (parent, home)."""
        ctx = kwargs.pop("shard_ctx", None)
        if ctx is not None:
            self._shard_home.setdefault(kwargs["dir_ino"], tuple(ctx))
        d = kwargs.get("dir_ino")
        while True:
            gate = self._split_busy.get(d)
            if gate is None:
                break
            yield gate
        self._dir_inflight[d] = self._dir_inflight.get(d, 0) + 1
        try:
            return (yield from super()._run_op(opname, kwargs))
        finally:
            n = self._dir_inflight.get(d, 1)
            if n <= 1:
                self._dir_inflight.pop(d, None)
            else:
                self._dir_inflight[d] = n - 1

    def _peer_call(self, leader: str, opname: str, **kwargs: Any) -> SimGen:
        home = self._shard_home.get(kwargs.get("dir_ino"))
        if home is not None:
            kwargs.setdefault("shard_ctx", home)
        return super()._peer_call(leader, opname, **kwargs)

    def _acquire_dir(self, dir_ino: int) -> SimGen:
        smap = self._shard_maps.get(dir_ino)
        if smap is not None:
            return ("sharded", smap)
        return (yield from super()._acquire_dir(dir_ino))

    def _reroute(self, smap: ShardMap, dir_ino: int, opname: str, creds,
                 route_name: Optional[str], kwargs: Dict[str, Any]) -> SimGen:
        """Finish an op spanning a split directory's shards (``result,
        dir_ino``), or name the shard to re-dispatch to (``None, shard``)."""
        if opname == "readdir":
            names: list = []
            for si in smap.shard_inos():
                part = yield from self._authority_op(si, "readdir", creds)
                names.extend(part)
            return sorted(names), dir_ino
        if opname == "rename_local":
            src_name, dst_name = kwargs["src_name"], kwargs["dst_name"]
            s_shard, d_shard = smap.route(src_name), smap.route(dst_name)
            if s_shard == d_shard:
                result = yield from self._authority_op(
                    s_shard, "rename_local", creds, src_name=src_name,
                    dst_name=dst_name)
                return result, dir_ino
            # Across shards: the cross-directory 2PC, shard to shard.
            yield from self._rename_2pc(creds, s_shard, src_name,
                                        d_shard, dst_name)
            return True, dir_ino
        name = route_name or kwargs.get("name")
        return None, (smap.route(name) if name is not None
                      else smap.home_ino())

    # --------------------------------------------------------- lease path

    def _lease_hint(self, dir_ino: int) -> Optional[Tuple[str, Any]]:
        """A cached map routes to the shards; a shard nobody is known to
        hold goes to its placement, not to whoever asks first (§11)."""
        smap = self._shard_maps.get(dir_ino)
        if smap is not None:
            return ("sharded", smap)
        if dir_ino not in self._shard_home or self._leads_dir(dir_ino):
            return None
        rt = self.remotes.get(dir_ino)
        if rt is not None and rt.valid(self.sim.now):
            return None
        pref = self._preferred_shard_leader(dir_ino)
        if pref is not None and pref != self.name:
            return ("remote", pref)
        return None

    def _dir_objects(self, dir_ino: int) -> Tuple[int, Optional[int]]:
        # A shard table lists its own key range under the parent's inode.
        home = self._shard_home.get(dir_ino)
        return (dir_ino, None) if home is None else (home[0], dir_ino)

    def _granted_elsewhere(self, dir_ino: int, list_ino) -> SimGen:
        """Holding a directory's lease, look for its shard map; roll an
        interrupted (splitting) one forward — recovery already ran."""
        if list_ino is not None:
            return None
        smap = yield from self.prt.get_shard_map(dir_ino, src=self.node)
        if smap is None:
            return None
        if not smap.active:
            smap = yield from roll_forward_split(self.prt, smap,
                                                 src=self.node)
        self._cache_shard_map(smap)
        yield from self._mgr("lease.release", dir_ino, self.name, True)
        return ("sharded", smap)

    def _leaderless_redirect(self, dir_ino: int) -> SimGen:
        """Usually "split under me": read the immutable ACTIVE map from the
        store, not the manager (stale-route resolution, §11)."""
        if dir_ino in self._shard_maps:
            return
        try:
            smap = yield from self.prt.get_shard_map(dir_ino, src=self.node)
        except TransientError:
            return
        if smap is not None and smap.active:
            self._cache_shard_map(smap)

    def _preferred_shard_leader(self, shard_ino: int) -> Optional[str]:
        """The first live client on a consistent-hash ring of the
        population: a routing hint, never a grant (placement, §11)."""
        peers = self.peers
        if not peers:
            return None
        start = zlib.crc32(ino_hex(shard_ino).encode()) % len(peers)
        for k in range(len(peers)):
            name = peers[(start + k) % len(peers)]
            if name == self.name:
                return name
            node = self.node.net.nodes.get(name)
            if node is not None and node.alive:
                return name
        return None

    def _cache_shard_map(self, smap: ShardMap) -> None:
        self._shard_maps[smap.dir_ino] = smap
        home = smap.home_ino()
        for r in smap.shards:
            self._shard_home[r.ino] = (smap.dir_ino, home)

    def _drop_shard_map(self, dir_ino: int) -> None:
        smap = self._shard_maps.pop(dir_ino, None)
        if smap is not None:
            for si in smap.shard_inos():
                self._shard_home.pop(si, None)

    def _drop_authority_hints(self, dir_ino: int) -> None:
        super()._drop_authority_hints(dir_ino)
        self._drop_shard_map(dir_ino)

    def _surrender_layout(self, dir_ino: int, smap: ShardMap) -> SimGen:
        """rmdir: a split directory is empty iff every shard is. Surrender
        the shards (one-level splits: this terminates), retire the map."""
        for si in smap.shard_inos():
            yield from self._surrender_child(si)
        self._drop_shard_map(dir_ino)
        yield from self.prt.delete_shard_map(dir_ino, src=self.node)

    def _crash_layers(self) -> None:
        self._shard_maps.clear()
        self._shard_home.clear()
        self._dir_inflight.clear()
        for proc in list(self._splitters.values()):
            proc.interrupt("crash")
        self._splitters.clear()
        for ev in self._split_busy.values():
            if not ev.triggered:
                ev.succeed()
        self._split_busy.clear()

    # -------------------------------------------------------------- split

    def _maybe_split(self, mt) -> None:
        if (mt.is_shard
                or len(mt.dentries) < self.params.shard_split_threshold
                or mt.dir_ino in self._split_busy
                or mt.dir_ino in self._shard_maps):
            return
        d = mt.dir_ino
        self._split_busy[d] = self.sim.event()
        self._splitters[d] = self.sim.process(
            self._split_dir(d), name=f"{self.name}.split:{d:x}")

    def _split_dir(self, d: int) -> SimGen:
        """The two-phase split (§11), under our parent lease and behind the
        split gate. A failure before the map PUT aborts (the parent stays
        authoritative); after it, the next lease holder rolls forward."""
        published = False
        try:
            while self._dir_inflight.get(d, 0) > 0:
                yield self.sim.timeout(0.0005)
            mt = self.metatables.get(d)
            now = self.sim.now
            if (mt is None
                    or mt.lease_expires - now < 2 * self.params.lease_renew_margin
                    or len(mt.dentries) < self.params.shard_split_threshold
                    or d in self._shard_maps
                    or any(di == d for _tx, di in self._pending_renames)
                    or any(di == d for di, _n in self._pending_names)):
                return
            # File leases move with the files: revoke (and so flush) every
            # holder while the parent is still the sole authority.
            for dn in list(mt.dentries.values()):
                if dn.ftype is FileType.REGULAR:
                    yield from self._revoke_all_holders(dn.ino)
                    self.fleases.forget_file(dn.ino)
            yield from self.journal.flush(d, full=True)  # store == metatable
            shards = [ShardRange(self.alloc.new(), lo, hi)
                      for lo, hi in make_ranges(self.params.shard_fanout)]
            smap = ShardMap(d, ShardMap.SPLITTING, shards)
            yield from self.prt.put_shard_map(smap, src=self.node)
            published = True
            # Migrate the ranges, then activate atomically.
            smap = yield from roll_forward_split(self.prt, smap,
                                                 src=self.node)
            self._cache_shard_map(smap)
        except (FSError, TransientError, MessageDropped, NodeDown,
                Interrupt):
            pass  # abort, abandon, or die with the client (crash)
        finally:
            self._splitters.pop(d, None)
            if published and self.alive:
                # The parent range is retired either way: the next acquire
                # re-resolves (and rolls an unactivated split forward).
                self._stop_leading(d)
                try:
                    yield from self._mgr("lease.release", d, self.name, True)
                except NodeDown:
                    pass
            ev = self._split_busy.pop(d, None)
            if ev is not None and not ev.triggered:
                ev.succeed()
