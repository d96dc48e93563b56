"""TieredObjectStore: write-back staging, demand promotion, lifecycle
demotion, batched verbs, and the retry / partial-batch interplay.

All tests run the tier over two InMemoryObjectStores (zero-latency) with
``drain_interval=0`` so nothing drains unless the test says so — the
background machinery is driven explicitly via ``tier_maintain`` /
``tier_drain_all`` or the dirty-bound kick.
"""

import pytest

from repro.core.retry import RetryPolicy
from repro.objectstore import (
    InMemoryObjectStore,
    NoSuchKey,
    RetryingObjectStore,
    TieredObjectStore,
)
from repro.objectstore.base import ObjectStore
from repro.objectstore.errors import TransientError
from repro.sim import Simulator

KiB = 1024


def make_tier(sim=None, **kw):
    sim = sim or Simulator()
    hot = InMemoryObjectStore(sim)
    cold = InMemoryObjectStore(sim)
    kw.setdefault("drain_interval", 0)
    tier = TieredObjectStore(sim, hot, cold, **kw)
    return sim, hot, cold, tier


def run(sim, gen):
    return sim.run_process(gen)


def settle(sim, dt=1.0):
    """Let background processes (promotions, kicked drains) finish."""
    sim.run(until=sim.now + dt)


class TestStaging:
    def test_staged_put_lands_hot_only(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"x" * 100))
        assert "d0001/0000000000" in hot
        assert "d0001/0000000000" not in cold
        assert tier.tier_dirty_keys() == ["d0001/0000000000"]
        assert tier.staged_dirty_bytes == 100
        assert run(sim, tier.get("d0001/0000000000")) == b"x" * 100
        assert tier.stats["hits"] == 1 and tier.stats["staged_puts"] == 1

    def test_metadata_writes_through_to_cold(self):
        sim, hot, cold, tier = make_tier()
        for key in ("i0001", "e0001/name", "j/0001", "t/ren1", "s/map",
                    "x0001"):
            run(sim, tier.put(key, b"m"))
            assert key in cold, key
            assert key in hot, key
        assert tier.tier_dirty_keys() == []
        assert tier.stats["writethrough_puts"] == 6

    def test_maintain_drains_to_cold(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"a" * 50))
        run(sim, tier.put("d0001/0000000001", b"b" * 60))
        run(sim, tier.tier_maintain())
        assert cold.sync_get("d0001/0000000000") == b"a" * 50
        assert cold.sync_get("d0001/0000000001") == b"b" * 60
        assert tier.tier_dirty_keys() == []
        assert tier.staged_dirty_bytes == 0
        assert tier.stats["drained_objects"] == 2
        assert tier.stats["drained_bytes"] == 110
        # Drained objects stay hot (clean) until demotion needs the space.
        assert tier.stats["hits"] == 0
        run(sim, tier.get("d0001/0000000000"))
        assert tier.stats["hits"] == 1

    def test_drain_all_is_a_barrier(self):
        sim, hot, cold, tier = make_tier(drain_batch=2)
        for i in range(7):
            run(sim, tier.put(f"d0001/{i:010d}", bytes([i + 1]) * 10))
        run(sim, tier.tier_drain_all())
        assert tier.tier_dirty_keys() == []
        assert len(cold) == 7

    def test_rewrite_while_dirty_replaces_pending_bytes(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"x" * 100))
        run(sim, tier.put("d0001/0000000000", b"y" * 40))
        assert tier.staged_dirty_bytes == 40
        run(sim, tier.tier_drain_all())
        assert cold.sync_get("d0001/0000000000") == b"y" * 40

    def test_dirty_bound_stalls_writer_and_kicks_drain(self):
        sim, hot, cold, tier = make_tier(dirty_max=150)
        run(sim, tier.put("d0001/0000000000", b"a" * 100))
        # Second staged put would exceed the bound: it must wait for the
        # kicked drain (never for demotion), then land.
        run(sim, tier.put("d0001/0000000001", b"b" * 100))
        assert tier.stats["stage_stalls"] >= 1
        assert "d0001/0000000000" in cold  # the kicked drain pushed it
        assert run(sim, tier.get("d0001/0000000001")) == b"b" * 100

    def test_disabled_ticker_builds_no_process(self):
        sim, _hot, _cold, tier = make_tier(drain_interval=0)
        assert tier._ticker is None


class TestPromotion:
    def test_miss_promotes_in_background(self):
        sim, hot, cold, tier = make_tier()
        cold.sync_put("d0002/0000000000", b"c" * 80)
        data = run(sim, tier.get("d0002/0000000000"))
        assert data == b"c" * 80
        assert tier.stats["misses"] == 1
        assert tier.stats["cold_get_bytes"] == 80
        settle(sim)
        assert tier.stats["promotions"] == 1
        assert "d0002/0000000000" in hot
        run(sim, tier.get("d0002/0000000000"))
        assert tier.stats["hits"] == 1  # second read is a hot hit

    def test_oversized_object_not_promoted(self):
        sim, hot, cold, tier = make_tier(promote_max=64)
        cold.sync_put("d0002/0000000000", b"c" * 100)
        run(sim, tier.get("d0002/0000000000"))
        settle(sim)
        assert tier.stats["promotions"] == 0
        assert "d0002/0000000000" not in hot

    def test_range_get_never_promotes(self):
        sim, hot, cold, tier = make_tier()
        cold.sync_put("p/pack1", b"0123456789" * 10)
        out = run(sim, tier.get_range("p/pack1", 10, 5))
        assert out == b"01234"
        settle(sim)
        assert tier.stats["promotions"] == 0
        assert tier.stats["cold_get_bytes"] == 5
        assert "p/pack1" not in hot

    def test_promoted_copy_is_clean_not_dirty(self):
        sim, hot, cold, tier = make_tier()
        cold.sync_put("d0002/0000000000", b"c" * 80)
        run(sim, tier.get("d0002/0000000000"))
        settle(sim)
        assert tier.tier_dirty_keys() == []


class TestDemotion:
    def test_watermarks_evict_lru_clean(self):
        sim, hot, cold, tier = make_tier(
            hot_capacity=1000, high_watermark=0.9, low_watermark=0.5)
        for i in range(10):
            run(sim, tier.put(f"d0001/{i:010d}", bytes([i + 1]) * 100))
        run(sim, tier.tier_drain_all())
        # Touch the two oldest so LRU eviction must skip past them.
        run(sim, tier.get("d0001/0000000000"))
        run(sim, tier.get("d0001/0000000001"))
        run(sim, tier.tier_maintain())
        assert tier.stats["demotions"] > 0
        assert tier.hot_bytes <= 500
        assert "d0001/0000000000" in hot and "d0001/0000000001" in hot
        # Every demoted object still reads correctly (from cold).
        for i in range(10):
            assert run(sim, tier.get(f"d0001/{i:010d}")) == \
                bytes([i + 1]) * 100

    def test_dirty_objects_never_evicted(self):
        sim, hot, cold, tier = make_tier(
            hot_capacity=300, high_watermark=0.5, low_watermark=0.2,
            dirty_max=10_000, drain_batch=0x7fffffff)
        # Fill over the high watermark with dirty-only objects and run the
        # demoter *without* draining: nothing is evictable.
        for i in range(5):
            run(sim, tier._hot_put(f"d0001/{i:010d}", b"z" * 100, None))
            tier._note_staged(f"d0001/{i:010d}", 100)
        run(sim, tier._demote())
        assert tier.stats["demotions"] == 0
        assert tier.hot_bytes == 500

    def test_under_watermark_is_a_noop(self):
        sim, hot, cold, tier = make_tier(hot_capacity=100_000)
        run(sim, tier.put("d0001/0000000000", b"a" * 100))
        run(sim, tier.tier_maintain())
        assert tier.stats["demotions"] == 0
        assert "d0001/0000000000" in hot


class TestBatchedVerbs:
    def test_put_many_splits_staged_and_through(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put_many([
            ("d0001/0000000000", b"a" * 10),
            ("i0001", b"meta"),
            ("p/pack1", b"b" * 20),
        ]))
        assert tier.tier_dirty_keys() == ["d0001/0000000000", "p/pack1"]
        assert "i0001" in cold and "d0001/0000000000" not in cold
        assert tier.stats["staged_puts"] == 2
        assert tier.stats["writethrough_puts"] == 1

    def test_get_many_aligns_and_promotes(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"hot!"))
        cold.sync_put("d0002/0000000000", b"cold")
        out = run(sim, tier.get_many(
            ["d0001/0000000000", "ghost", "d0002/0000000000"]))
        assert out == [b"hot!", None, b"cold"]
        assert tier.stats["hits"] == 1 and tier.stats["misses"] == 2
        settle(sim)
        assert "d0002/0000000000" in hot

    def test_delete_many_counts_union_once(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"dirty"))  # hot-only
        run(sim, tier.put("i0001", b"both"))              # hot + cold
        cold.sync_put("d0009/0000000000", b"cold-only")
        removed = run(sim, tier.delete_many(
        ["d0001/0000000000", "i0001", "d0009/0000000000", "ghost",
         "ghost"]))
        assert removed == 3
        for s in (hot, cold):
            for k in ("d0001/0000000000", "i0001", "d0009/0000000000"):
                assert k not in s
        assert tier.tier_dirty_keys() == []

    def test_empty_batches(self):
        sim, _hot, _cold, tier = make_tier()
        assert run(sim, tier.get_many([])) == []
        assert run(sim, tier.delete_many([])) == 0
        run(sim, tier.put_many([]))


class TestDeleteAndCreate:
    def test_delete_dirty_only_key_tolerates_cold_absence(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"x"))
        run(sim, tier.delete("d0001/0000000000"))
        assert "d0001/0000000000" not in hot
        assert tier.staged_dirty_bytes == 0

    def test_delete_missing_raises(self):
        sim, _hot, _cold, tier = make_tier()
        with pytest.raises(NoSuchKey):
            run(sim, tier.delete("d0001/0000000000"))

    def test_put_if_absent_cold_is_authority(self):
        sim, hot, cold, tier = make_tier()
        assert run(sim, tier.put_if_absent("t/ren1", b"A")) is True
        assert cold.sync_get("t/ren1") == b"A"
        assert run(sim, tier.put_if_absent("t/ren1", b"B")) is False
        assert cold.sync_get("t/ren1") == b"A"

    def test_put_if_absent_loses_to_staged_resident(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"staged"))
        assert run(sim, tier.put_if_absent(
            "d0001/0000000000", b"late")) is False
        assert run(sim, tier.get("d0001/0000000000")) == b"staged"

    def test_list_is_cold_union_dirty(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"x"))   # dirty, hot-only
        run(sim, tier.put("i0001", b"m"))              # write-through
        cold.sync_put("d0002/0000000000", b"c")
        out = run(sim, tier.list(""))
        assert out == ["d0001/0000000000", "d0002/0000000000", "i0001"]


class TestCrashModel:
    def test_lose_hot_drops_staged_keeps_drained(self):
        sim, hot, cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"durable"))
        run(sim, tier.tier_drain_all())
        run(sim, tier.put("d0001/0000000001", b"volatile"))
        tier.lose_hot()
        assert len(hot) == 0
        assert tier.staged_dirty_bytes == 0 and tier.hot_bytes == 0
        assert run(sim, tier.get("d0001/0000000000")) == b"durable"
        with pytest.raises(NoSuchKey):
            run(sim, tier.get("d0001/0000000001"))

    def test_usage_counts_staged_dirty(self):
        sim, _hot, _cold, tier = make_tier()
        run(sim, tier.put("d0001/0000000000", b"x" * 100))
        n, used = tier.usage()
        assert n == 1 and used == 100
        run(sim, tier.tier_drain_all())
        n, used = tier.usage()
        assert n == 1 and used == 100


class TestRetryInterplay:
    def test_drain_retries_transient_cold_failure(self):
        sim = Simulator()
        hot = InMemoryObjectStore(sim)
        cold = InMemoryObjectStore(sim)
        fail = {"left": 2}
        real_put_many = cold.put_many

        def flaky_put_many(items, src=None):
            if fail["left"] > 0:
                fail["left"] -= 1
                yield sim.timeout(0)
                raise TransientError("SlowDown")
            return (yield from real_put_many(items, src=src))

        cold.put_many = flaky_put_many
        retry = RetryPolicy(sim, limit=4, base=1e-3, cap=8e-3)
        tier = TieredObjectStore(sim, hot, RetryingObjectStore(cold, retry),
                                 drain_interval=0)
        sim.run_process(tier.put("d0001/0000000000", b"x" * 10))
        sim.run_process(tier.tier_drain_all())
        assert fail["left"] == 0
        assert cold.sync_get("d0001/0000000000") == b"x" * 10
        assert tier.tier_dirty_keys() == []
        assert retry._c_attempts.value == 2

    def test_drain_gives_up_after_limit_and_stays_dirty(self):
        sim = Simulator()
        hot = InMemoryObjectStore(sim)
        cold = InMemoryObjectStore(sim)

        def always_fail(items, src=None):
            yield sim.timeout(0)
            raise TransientError("SlowDown")

        cold.put_many = always_fail
        retry = RetryPolicy(sim, limit=1, base=1e-3, cap=2e-3)
        tier = TieredObjectStore(sim, hot, RetryingObjectStore(cold, retry),
                                 drain_interval=0)
        sim.run_process(tier.put("d0001/0000000000", b"x"))
        with pytest.raises(TransientError):
            sim.run_process(tier.tier_drain_all())
        # The object is still staged — nothing was marked clean.
        assert tier.tier_dirty_keys() == ["d0001/0000000000"]


class _SettlingStore(ObjectStore):
    """Minimal store exercising the base-class batched fallbacks, with a
    poisoned key to test the settle-everything partial-batch contract."""

    def __init__(self, sim, poison=None):
        self.sim = sim
        self.data = {}
        self.poison = poison

    def _maybe_poison(self, key):
        if key == self.poison:
            raise TransientError(f"poisoned: {key}")

    def get(self, key, src=None):
        yield self.sim.timeout(0)
        self._maybe_poison(key)
        if key not in self.data:
            raise NoSuchKey(key)
        return self.data[key]

    def get_range(self, key, offset, length, src=None):
        data = yield from self.get(key, src=src)
        return data[offset:offset + length]

    def put(self, key, data, src=None):
        yield self.sim.timeout(0)
        self._maybe_poison(key)
        self.data[key] = data

    def delete(self, key, src=None):
        yield self.sim.timeout(0)
        self._maybe_poison(key)
        if key not in self.data:
            raise NoSuchKey(key)
        del self.data[key]

    def head(self, key, src=None):
        data = yield from self.get(key, src=src)
        return len(data)

    def list(self, prefix, src=None):
        yield self.sim.timeout(0)
        return sorted(k for k in self.data if k.startswith(prefix))

    def put_if_absent(self, key, data, src=None):
        yield self.sim.timeout(0)
        if key in self.data:
            return False
        self.data[key] = data
        return True


class TestPartialBatchContract:
    def test_put_many_applies_siblings_then_raises_first_error(self):
        sim = Simulator()
        s = _SettlingStore(sim, poison="k1")
        with pytest.raises(TransientError, match="k1"):
            sim.run_process(s.put_many(
                [("k0", b"a"), ("k1", b"b"), ("k2", b"c")]))
        # Every non-failing PUT applied: a whole-batch retry converges.
        assert s.data == {"k0": b"a", "k2": b"c"}
        s.poison = None
        sim.run_process(s.put_many(
            [("k0", b"a"), ("k1", b"b"), ("k2", b"c")]))
        assert sorted(s.data) == ["k0", "k1", "k2"]

    def test_get_many_raises_real_errors_but_tolerates_absence(self):
        sim = Simulator()
        s = _SettlingStore(sim, poison="bad")
        s.data["k0"] = b"a"
        assert sim.run_process(s.get_many(["k0", "ghost"])) == [b"a", None]
        with pytest.raises(TransientError):
            sim.run_process(s.get_many(["k0", "bad"]))

    def test_delete_many_settles_all_before_raising(self):
        sim = Simulator()
        s = _SettlingStore(sim, poison="bad")
        s.data.update({"k0": b"a", "k1": b"b"})
        with pytest.raises(TransientError):
            sim.run_process(s.delete_many(["k0", "bad", "k1"]))
        assert s.data == {}  # both siblings settled (deleted)

    def test_single_item_fast_path_error_propagates(self):
        sim = Simulator()
        s = _SettlingStore(sim, poison="bad")
        with pytest.raises(TransientError):
            sim.run_process(s.put_many([("bad", b"x")]))
