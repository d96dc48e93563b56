"""Hot/cold tiered object store (ROADMAP item 4).

Fronts a cold, capacity-class store (S3 profile) with a small fast tier
(RADOS profile), the Objcache shape: an elastic staging layer between fast
local storage and cold external persistent storage.

* **Write-back staging** — data-plane objects (``d`` chunks and ``p`` pack
  containers) land in the hot tier only and are marked dirty; a background
  drain pushes them to cold in batches. Dirty bytes are bounded
  (``tier_dirty_max``): a writer that would exceed the bound waits for the
  drain, never for demotion. Metadata-plane objects (inodes, dentries,
  journal records, 2PC decisions, shard maps, extent indices) are written
  **through**: hot and cold in parallel, durable at cold before the PUT
  returns, so the journaling/commit protocol keeps its durability contract
  unchanged.
* **Demand promotion** — reads probe the hot tier first; on miss the object
  is served from cold and, when no larger than ``tier_promote_max``,
  promoted (copied hot, clean) in the background. Ranged GETs (pack
  container reads) are served as range-sized cold GETs and never promote
  the whole container.
* **Lifecycle demotion** — when resident hot bytes exceed
  ``tier_high_watermark * tier_hot_capacity``, clean objects are evicted in
  LRU order down to the low watermark. Dirty objects are never evicted
  (they exist nowhere else). Demotion runs from the maintenance path (the
  pack ticker calls :meth:`tier_maintain`) and from the tier's own drain
  ticker, so the hot tier never stalls writers on capacity.

Durability contract: hot-only state is volatile. A staged object is durable
only once drained to cold; ``fsync``/``sync`` force a drain barrier
(:meth:`tier_drain_all`) so the POSIX contract holds. Crash recovery
(fsck + crashcheck) treats the hot tier as lost (:meth:`lose_hot`) and must
recover from cold + journal alone.

Retry composition: the tier performs no retries and knows no retry policy.
Where transient errors can originate (a fault shim, a caller-supplied
store), the cluster builder wraps *that leg* in a
:class:`~repro.objectstore.retrying.RetryingObjectStore`, so every verb the
tier issues on ``hot``/``cold`` — not only the drain — is already retried
beneath it. The base-class batched fallbacks settle every sub-operation
before raising, so the whole-batch retry that layer performs is idempotent
and converges.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import Observability
from ..sim.engine import Event, Interrupt, SimGen, Simulator
from ..sim.network import Node
from ..sim.resources import Mutex
from .base import ObjectStore
from .errors import NoSuchKey

__all__ = ["TieredObjectStore", "STAGED_KINDS"]

#: Key kinds that are write-back staged (data plane). Everything else is
#: written through to cold synchronously (metadata/journal plane).
STAGED_KINDS = frozenset(("d", "p"))


class TieredObjectStore(ObjectStore):
    """A fast hot tier in front of a cold capacity tier.

    ``hot`` and ``cold`` are any two :class:`ObjectStore` implementations
    (fault wrappers included — the tier only uses the public surface plus,
    for the crash model, the synchronous ``backing`` of the hot tier).
    """

    def __init__(self, sim: Simulator, hot: ObjectStore, cold: ObjectStore,
                 hot_capacity: int = 64 * 1024 * 1024,
                 high_watermark: float = 0.9, low_watermark: float = 0.7,
                 dirty_max: int = 32 * 1024 * 1024,
                 drain_interval: float = 0.5, drain_batch: int = 32,
                 promote_max: int = 8 * 1024 * 1024):
        self.sim = sim
        self.hot = hot
        self.cold = cold
        self.hot_capacity = int(hot_capacity)
        self.high_watermark = float(high_watermark)
        self.low_watermark = float(low_watermark)
        self.dirty_max = int(dirty_max)
        self.drain_interval = float(drain_interval)
        self.drain_batch = max(1, int(drain_batch))
        self.promote_max = int(promote_max)

        # Hot-resident objects, LRU order (oldest first), key -> size.
        self._resident: "OrderedDict[str, int]" = OrderedDict()
        # Staged-but-not-drained objects, key -> write version. A re-write
        # during a drain bumps the version so the stale drain round cannot
        # mark the key clean.
        self._dirty: Dict[str, int] = {}
        self._ver = 0
        # Keys currently owned by a background round (drain batch, demotion
        # batch, or an in-flight promotion). Client mutations on such a key
        # wait for the round's event, so a demotion can never delete bytes a
        # concurrent writer just staged and a promotion can never overwrite
        # newer data with stale cold bytes.
        self._inflight: Dict[str, Event] = {}
        # Writers blocked on the dirty-bytes bound.
        self._drain_waiters: List[Event] = []
        self._drain_lock = Mutex(sim, name="tier:drain")
        self._demote_busy = False
        self._drain_kicked = False
        # Bumped by lose_hot(); stale drain rounds check it before touching
        # bookkeeping that the crash already reset.
        self._epoch = 0
        self.hot_bytes = 0
        self.staged_dirty_bytes = 0

        m = Observability.of(sim).metrics.scope("tier")
        self._c_hits = m.counter("hits")
        self._c_misses = m.counter("misses")
        self._c_hit_bytes = m.counter("hit_bytes")
        self._c_cold_get_bytes = m.counter("cold_get_bytes")
        self._c_promotions = m.counter("promotions")
        self._c_promoted_bytes = m.counter("promoted_bytes")
        self._c_demotions = m.counter("demotions")
        self._c_demoted_bytes = m.counter("demoted_bytes")
        self._c_drained_objects = m.counter("drained_objects")
        self._c_drained_bytes = m.counter("drained_bytes")
        self._c_staged_puts = m.counter("staged_puts")
        self._c_staged_bytes = m.counter("staged_bytes")
        self._c_writethrough_puts = m.counter("writethrough_puts")
        self._c_stage_stalls = m.counter("stage_stalls")
        self._g_dirty = m.gauge("staged_dirty_bytes")
        self._g_hot = m.gauge("hot_bytes")

        self._ticker = None
        if self.drain_interval > 0:
            self._ticker = sim.process(self._tick_loop(), name="tier:tick")

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _staged(key: str) -> bool:
        return key[:1] in STAGED_KINDS

    def _touch(self, key: str) -> None:
        self._resident.move_to_end(key)

    def _wait_inflight(self, key: str) -> SimGen:
        """Block until no other round owns ``key``."""
        ev = self._inflight.get(key)
        while ev is not None:
            yield ev
            ev = self._inflight.get(key)

    def _claim(self, keys: Sequence[str], incoming: int = 0) -> SimGen:
        """Take per-key ownership for a client mutation.

        Waits out any background round touching the keys (and, for staged
        writes, the dirty-bytes bound), then claims them all with no
        intervening yield — a demotion or drain round starting afterwards
        skips claimed keys, so it can never delete bytes a concurrent
        writer just staged or mark them clean spuriously. Returns the claim
        event; release with :meth:`_unclaim`."""
        while True:
            for k in keys:
                yield from self._wait_inflight(k)
            if incoming:
                yield from self._stage_backpressure(incoming)
            if not any(k in self._inflight for k in keys):
                break
        ev = self.sim.event()
        for k in keys:
            self._inflight[k] = ev
        return ev

    def _unclaim(self, keys: Sequence[str], ev: Event) -> None:
        for k in keys:
            if self._inflight.get(k) is ev:
                del self._inflight[k]
        if not ev.triggered:
            ev.succeed()

    def _account_resident(self, key: str, size: int) -> None:
        old = self._resident.pop(key, 0)
        self._resident[key] = size
        self.hot_bytes += size - old
        self._g_hot.set(self.hot_bytes)

    def _unaccount_resident(self, key: str) -> None:
        old = self._resident.pop(key, None)
        if old is not None:
            self.hot_bytes -= old
            self._g_hot.set(self.hot_bytes)

    def _note_staged(self, key: str, size: int) -> None:
        """Bookkeeping after a staged PUT landed hot: resident + dirty."""
        prev = self._dirty.get(key)
        if prev is not None:
            # Re-write of a still-dirty key: replace its pending bytes.
            old_size = self._resident.get(key, 0)
            self.staged_dirty_bytes += size - old_size
        else:
            self.staged_dirty_bytes += size
        self._ver += 1
        self._dirty[key] = self._ver
        self._account_resident(key, size)
        self._g_dirty.set(self.staged_dirty_bytes)

    def _mark_clean(self, key: str, ver: int, size: int) -> None:
        """Drain completed for (key, ver); keep dirty if re-written since."""
        if self._dirty.get(key) != ver:
            return
        del self._dirty[key]
        self.staged_dirty_bytes -= size
        self._g_dirty.set(self.staged_dirty_bytes)

    def _release_drain_waiters(self) -> None:
        waiters, self._drain_waiters = self._drain_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def _stage_backpressure(self, incoming: int) -> SimGen:
        """Bound dirty bytes: wait for the drain, never for demotion."""
        while (self._dirty
               and self.staged_dirty_bytes + incoming > self.dirty_max):
            self._c_stage_stalls.inc()
            self._kick_drain()
            ev = self.sim.event()
            self._drain_waiters.append(ev)
            yield ev

    def _kick_drain(self) -> None:
        if self._drain_kicked:
            return
        self._drain_kicked = True

        def kicked() -> SimGen:
            try:
                yield from self._drain_rounds(src=None, drain_all=False)
            finally:
                self._drain_kicked = False

        self.sim.process(kicked(), name="tier:kick")

    # -- reads --------------------------------------------------------------

    def get(self, key: str, src: Optional[Node] = None) -> SimGen:
        if key in self._resident:
            self._c_hits.inc()
            self._touch(key)
            data = yield from self.hot.get(key, src=src)
            self._c_hit_bytes.inc(len(data))
            return data
        self._c_misses.inc()
        data = yield from self.cold.get(key, src=src)
        self._c_cold_get_bytes.inc(len(data))
        if len(data) <= self.promote_max:
            self._promote_async(key, data)
        return data

    def get_range(self, key: str, offset: int, length: int,
                  src: Optional[Node] = None) -> SimGen:
        if key in self._resident:
            self._c_hits.inc()
            self._touch(key)
            data = yield from self.hot.get_range(key, offset, length, src=src)
            self._c_hit_bytes.inc(len(data))
            return data
        # Pack-container path: fetch exactly the range from cold; whole-
        # container promotion would blow the hot budget for one extent.
        self._c_misses.inc()
        data = yield from self.cold.get_range(key, offset, length, src=src)
        self._c_cold_get_bytes.inc(len(data))
        return data

    def head(self, key: str, src: Optional[Node] = None) -> SimGen:
        if key in self._resident:
            self._touch(key)
            return (yield from self.hot.head(key, src=src))
        return (yield from self.cold.head(key, src=src))

    def list(self, prefix: str, src: Optional[Node] = None) -> SimGen:
        # An object exists in the tier iff it is durable in cold or staged
        # dirty in hot. Listing the raw hot backing instead would surface
        # orphan bytes a crash can strand there (a PUT landing after
        # lose_hot wiped the bookkeeping) — invisible to reads, so they
        # must be invisible to LIST as well.
        keys = yield from self.cold.list(prefix, src=src)
        dirty = [k for k in self._dirty if k.startswith(prefix)]
        return sorted(set(keys) | set(dirty))

    def _promote_async(self, key: str, data: bytes) -> None:
        """Copy a cold object hot (clean), in the background."""
        if key in self._resident or key in self._inflight:
            return
        ev = self.sim.event()
        self._inflight[key] = ev
        epoch = self._epoch

        def promote() -> SimGen:
            try:
                yield from self.hot.put(key, data, src=None)
                if self._epoch == epoch:
                    self._account_resident(key, len(data))
                    self._c_promotions.inc()
                    self._c_promoted_bytes.inc(len(data))
            finally:
                if self._inflight.get(key) is ev:
                    del self._inflight[key]
                if not ev.triggered:
                    ev.succeed()

        self.sim.process(promote(), name=f"tier:promote:{key}")

    # -- writes -------------------------------------------------------------

    def _hot_put(self, key: str, data: bytes,
                 src: Optional[Node]) -> SimGen:
        """PUT to the hot tier, redone if a crash wiped it mid-flight (the
        epoch fence): bookkeeping that follows must describe bytes that are
        actually resident after the wipe."""
        while True:
            epoch = self._epoch
            yield from self.hot.put(key, data, src=src)
            if self._epoch == epoch:
                return

    def put(self, key: str, data: bytes, src: Optional[Node] = None) -> SimGen:
        if self._staged(key):
            ev = yield from self._claim([key], incoming=len(data))
            try:
                yield from self._hot_put(key, data, src=src)
                self._note_staged(key, len(data))
                self._c_staged_puts.inc()
                self._c_staged_bytes.inc(len(data))
            finally:
                self._unclaim([key], ev)
            return
        # Write-through: hot and cold in parallel; durable at cold.
        ev = yield from self._claim([key])
        try:
            ph = self.sim.process(self.hot.put(key, data, src=src),
                                  name=f"tier:wt-hot:{key}")
            pc = self.sim.process(self.cold.put(key, data, src=src),
                                  name=f"tier:wt-cold:{key}")
            epoch = self._epoch
            yield self.sim.all_of([ph, pc])
            if self._epoch != epoch:
                yield from self._hot_put(key, data, src=src)
            self._account_resident(key, len(data))
            self._c_writethrough_puts.inc()
        finally:
            self._unclaim([key], ev)

    def put_if_absent(self, key: str, data: bytes,
                      src: Optional[Node] = None) -> SimGen:
        yield from self._wait_inflight(key)
        if key in self._resident:
            # The hot tier already holds it (possibly dirty, i.e. not yet in
            # cold) — the create must lose either way. Charge a hot probe.
            yield from self.hot.head(key, src=src)
            return False
        # Cold is the atomicity authority (exclusive-create there), so two
        # racing clients serialize exactly as on a single-tier store.
        created = yield from self.cold.put_if_absent(key, data, src=src)
        if created:
            self._promote_async(key, data)
        return created

    def delete(self, key: str, src: Optional[Node] = None) -> SimGen:
        ev = yield from self._claim([key])
        try:
            in_hot = key in self._resident
            was_dirty = key in self._dirty
            if in_hot:
                if was_dirty:
                    self._mark_clean(key, self._dirty[key],
                                     self._resident.get(key, 0))
                self._unaccount_resident(key)
                try:
                    yield from self.hot.delete(key, src=src)
                except NoSuchKey:
                    pass  # crash wiped the hot tier under us
            try:
                yield from self.cold.delete(key, src=src)
            except NoSuchKey:
                # A still-dirty object may never have reached cold; that is
                # not an error as long as the object existed somewhere.
                if not in_hot:
                    raise
        finally:
            self._unclaim([key], ev)

    # -- batched ------------------------------------------------------------

    def get_many(self, keys: Sequence[str],
                 src: Optional[Node] = None) -> SimGen:
        if not keys:
            return []
        hot_keys = [k for k in keys if k in self._resident]
        cold_keys = [k for k in keys if k not in self._resident]
        procs = []
        if hot_keys:
            for k in hot_keys:
                self._touch(k)
            procs.append(self.sim.process(
                self.hot.get_many(hot_keys, src=src), name="tier:mget:hot"))
        if cold_keys:
            procs.append(self.sim.process(
                self.cold.get_many(cold_keys, src=src), name="tier:mget:cold"))
        results = yield self.sim.all_of(procs)
        hot_vals = dict(zip(hot_keys, results[0])) if hot_keys else {}
        cold_vals = (dict(zip(cold_keys, results[-1]))
                     if cold_keys else {})
        out: List[Optional[bytes]] = []
        for k in keys:
            if k in hot_vals:
                v = hot_vals[k]
                self._c_hits.inc()
                if v is not None:
                    self._c_hit_bytes.inc(len(v))
                out.append(v)
            else:
                v = cold_vals[k]
                self._c_misses.inc()
                if v is not None:
                    self._c_cold_get_bytes.inc(len(v))
                    if len(v) <= self.promote_max:
                        self._promote_async(k, v)
                out.append(v)
        return out

    def put_many(self, items: Sequence[Tuple[str, bytes]],
                 src: Optional[Node] = None) -> SimGen:
        if not items:
            return
        staged = [(k, v) for k, v in items if self._staged(k)]
        through = [(k, v) for k, v in items if not self._staged(k)]
        keys = [k for k, _ in items]
        ev = yield from self._claim(
            keys, incoming=sum(len(v) for _, v in staged))
        try:
            while True:
                epoch = self._epoch
                procs = []
                if staged:
                    procs.append(self.sim.process(
                        self.hot.put_many(staged, src=src),
                        name="tier:mput:stage"))
                if through:
                    procs.append(self.sim.process(
                        self.hot.put_many(through, src=src),
                        name="tier:mput:hot"))
                    procs.append(self.sim.process(
                        self.cold.put_many(through, src=src),
                        name="tier:mput:cold"))
                yield self.sim.all_of(procs)
                if self._epoch == epoch:
                    break
            for k, v in staged:
                self._note_staged(k, len(v))
                self._c_staged_puts.inc()
                self._c_staged_bytes.inc(len(v))
            for k, v in through:
                self._account_resident(k, len(v))
                self._c_writethrough_puts.inc()
        finally:
            self._unclaim(keys, ev)

    def delete_many(self, keys: Sequence[str],
                    src: Optional[Node] = None) -> SimGen:
        if not keys:
            return 0
        ev = yield from self._claim(list(keys))
        try:
            hot_keys = []
            removed = 0
            counted = set()
            for k in keys:
                if k in counted:
                    continue
                counted.add(k)
                if k in self._resident or k in self.cold:
                    removed += 1
                if k in self._resident:
                    hot_keys.append(k)
                    if k in self._dirty:
                        self._mark_clean(k, self._dirty[k],
                                         self._resident.get(k, 0))
                    self._unaccount_resident(k)
            procs = []
            if hot_keys:
                procs.append(self.sim.process(
                    self.hot.delete_many(hot_keys, src=src),
                    name="tier:mdel:hot"))
            procs.append(self.sim.process(
                self.cold.delete_many(list(keys), src=src),
                name="tier:mdel:cold"))
            yield self.sim.all_of(procs)
            return removed
        finally:
            self._unclaim(list(keys), ev)

    # -- background: drain + demotion ----------------------------------------

    def _tick_loop(self) -> SimGen:
        try:
            while True:
                yield self.sim.timeout(self.drain_interval)
                yield from self.tier_maintain(src=None)
        except Interrupt:
            return

    def tier_maintain(self, src: Optional[Node] = None) -> SimGen:
        """One maintenance round: drain a batch, then demote if over the
        high watermark. Called by the pack maintenance ticker and by the
        tier's own drain ticker."""
        yield from self._drain_rounds(src=src, drain_all=False)
        yield from self._demote(src=src)

    def tier_drain_all(self, src: Optional[Node] = None) -> SimGen:
        """Drain barrier: every object staged *before* this call is durable
        in cold when it returns (the fsync/sync contract)."""
        while self._dirty:
            yield from self._drain_rounds(src=src, drain_all=True)

    def _drain_rounds(self, src: Optional[Node], drain_all: bool) -> SimGen:
        req = yield from self._drain_lock.acquire()
        try:
            while self._dirty:
                n = yield from self._drain_batch(src)
                if not drain_all:
                    break
                if n == 0:
                    # Every dirty key is owned by an in-flight writer round;
                    # wait for one to finish, then re-derive the batch.
                    evs = [self._inflight[k] for k in self._dirty
                           if k in self._inflight]
                    if evs:
                        yield evs[0]
        finally:
            self._drain_lock.release(req)

    def _drain_batch(self, src: Optional[Node]) -> SimGen:
        """Push up to ``drain_batch`` dirty objects hot -> cold. Returns the
        number of keys attempted (0 = all dirty keys claimed elsewhere)."""
        batch = [(k, v) for k, v in self._dirty.items()
                 if k not in self._inflight][: self.drain_batch]
        if not batch:
            return 0
        epoch = self._epoch
        ev = self.sim.event()
        for key, _ in batch:
            self._inflight[key] = ev
        try:
            keys = [k for k, _ in batch]
            values = yield from self.hot.get_many(keys, src=src)
            items = [(k, v) for (k, _), v in zip(batch, values)
                     if v is not None]
            if items:
                yield from self._drain_cold_put(items, src)
            if self._epoch == epoch:
                sizes = {k: len(v) for k, v in items}
                for key, ver in batch:
                    # A key whose hot bytes vanished (deleted mid-round)
                    # has nothing left to drain either.
                    size = sizes.get(key, self._resident.get(key, 0))
                    self._mark_clean(key, ver, size)
                self._c_drained_objects.inc(len(items))
                self._c_drained_bytes.inc(sum(len(v) for _, v in items))
        finally:
            for key, _ in batch:
                if self._inflight.get(key) is ev:
                    del self._inflight[key]
            if not ev.triggered:
                ev.succeed()
            self._release_drain_waiters()
        return len(batch)

    def _drain_cold_put(self, items: Sequence[Tuple[str, bytes]],
                        src: Optional[Node]) -> SimGen:
        """The cold leg of the drain: the point where staged bytes become
        durable (crashcheck's seeded drain-reorder bug replaces it)."""
        return self.cold.put_many(items, src=src)

    def _demote(self, src: Optional[Node] = None) -> SimGen:
        """Evict clean LRU objects down to the low watermark."""
        if self._demote_busy:
            return
        if self.hot_bytes <= self.high_watermark * self.hot_capacity:
            return
        self._demote_busy = True
        ev = self.sim.event()
        epoch = self._epoch
        evict: List[str] = []
        try:
            target = self.low_watermark * self.hot_capacity
            freed = 0
            for key, size in self._resident.items():  # LRU order
                if key in self._dirty or key in self._inflight:
                    continue
                evict.append(key)
                freed += size
                if self.hot_bytes - freed <= target:
                    break
            if not evict:
                return
            demoted_bytes = 0
            for key in evict:
                self._inflight[key] = ev
                demoted_bytes += self._resident.get(key, 0)
                self._unaccount_resident(key)
            yield from self.hot.delete_many(evict, src=src)
            if self._epoch == epoch:
                self._c_demotions.inc(len(evict))
                self._c_demoted_bytes.inc(demoted_bytes)
        finally:
            self._demote_busy = False
            for key in evict:
                if self._inflight.get(key) is ev:
                    del self._inflight[key]
            if not ev.triggered:
                ev.succeed()

    # -- crash model / recovery hooks ----------------------------------------

    def tier_dirty_keys(self) -> List[str]:
        """Keys whose only durable copy is the hot tier (fsck reporting)."""
        return sorted(self._dirty)

    def lose_hot(self) -> None:
        """Crash model: the fast tier's contents are gone.

        Synchronous (called from crash handlers, which cannot yield): wipes
        the hot backing directly, resets bookkeeping, and aborts in-flight
        background rounds via the epoch fence."""
        backing = getattr(self.hot, "backing", self.hot)
        sync_list = getattr(backing, "sync_list", None)
        sync_delete = getattr(backing, "sync_delete", None)
        if sync_list is not None and sync_delete is not None:
            for key in list(sync_list("")):
                try:
                    sync_delete(key)
                except NoSuchKey:
                    pass
        self._epoch += 1
        self._resident.clear()
        self._dirty.clear()
        self.hot_bytes = 0
        self.staged_dirty_bytes = 0
        self._g_hot.set(0)
        self._g_dirty.set(0)
        for key, ev in list(self._inflight.items()):
            del self._inflight[key]
            if not ev.triggered:
                ev.succeed()
        self._release_drain_waiters()

    def stop(self) -> None:
        if self._ticker is not None and self._ticker.alive:
            self._ticker.interrupt("tier stop")

    # -- capacity / accounting ----------------------------------------------

    @property
    def capacity_bytes(self) -> float:
        return getattr(self.cold, "capacity_bytes", 8e12)

    def usage(self):
        """(n_objects, used_bytes) of durable state plus staged-dirty."""
        n, used = 0, 0
        cold_usage = getattr(self.cold, "usage", None)
        if cold_usage is not None:
            n, used = cold_usage()
        n_dirty = 0
        dirty_bytes = 0
        for key in self._dirty:
            if key not in self.cold:
                n_dirty += 1
                dirty_bytes += self._resident.get(key, 0)
        return n + n_dirty, used + dirty_bytes

    def cold_cost_saved(self) -> float:
        """Dollars of cold GET traffic avoided by hot hits (A10 report)."""
        profile = getattr(self.cold, "profile", None)
        if profile is None:
            return 0.0
        per_req = getattr(profile, "cost_per_request", 0.0)
        per_gb = getattr(profile, "cost_per_gb", 0.0)
        hits = self._c_hits.value
        hit_bytes = self._c_hit_bytes.value
        return hits * per_req + (hit_bytes / float(1024 ** 3)) * per_gb

    def __contains__(self, key: str) -> bool:
        return key in self._resident or key in self.cold

    def __len__(self) -> int:
        return len(self.cold) + sum(1 for k in self._dirty
                                    if k not in self.cold)

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self._c_hits.value,
            "misses": self._c_misses.value,
            "hit_bytes": self._c_hit_bytes.value,
            "cold_get_bytes": self._c_cold_get_bytes.value,
            "promotions": self._c_promotions.value,
            "promoted_bytes": self._c_promoted_bytes.value,
            "demotions": self._c_demotions.value,
            "demoted_bytes": self._c_demoted_bytes.value,
            "drained_objects": self._c_drained_objects.value,
            "drained_bytes": self._c_drained_bytes.value,
            "staged_puts": self._c_staged_puts.value,
            "writethrough_puts": self._c_writethrough_puts.value,
            "stage_stalls": self._c_stage_stalls.value,
            "hot_bytes": self.hot_bytes,
            "staged_dirty_bytes": self.staged_dirty_bytes,
        }
