"""Store retry is one layer riding with the fault shim, not a habit of callers.

The integration half drives the paths that *no* call-site wrapper ever
covered — DIRECT-mode ``read``/``write`` go client → ``prt.read_data`` /
``write_data`` → store — and shows a single injected transient costing a
retry instead of escaping the VFS call. The unit half pins the layer
itself: every verb, single and batched, runs under the policy; everything
else delegates to the wrapped store.
"""

import pytest

from repro.core import DEFAULT_PARAMS, build_arkfs
from repro.core.retry import RetryPolicy
from repro.faults import FaultPlan, FaultyObjectStore
from repro.objectstore import (InMemoryObjectStore, NoSuchKey,
                               RetryingObjectStore, TieredObjectStore)
from repro.objectstore.errors import TransientError
from repro.obs import Observability
from repro.posix import OpenFlags, ROOT_CREDS, SyncFS
from repro.sim import Simulator


def attempts(sim):
    counters = Observability.of(sim).metrics.to_dict()["counters"]
    return counters.get("store.retry.attempts", 0)


def _direct_mode_file(sim, plan):
    """Two clients hold leases on one file and one writes: the leader
    flips the file into DIRECT mode (paper III-D). Returns both handles
    and the prefix of the file's data-object keys."""
    cluster = build_arkfs(sim, n_clients=2, functional=True, faults=plan)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs2 = SyncFS(cluster.client(1), ROOT_CREDS)
    fs.write_file("/c.txt", b"base", do_fsync=True)
    h1 = fs.open("/c.txt", OpenFlags.O_RDWR)
    h2 = fs2.open("/c.txt", OpenFlags.O_RDWR)
    h1.read(4)
    h2.read(4)
    h2.write(b"NEW!", offset=0)
    ino = fs.stat("/c.txt").st_ino
    assert cluster.client(0).fleases.is_direct(ino)
    return h1, h2, cluster.prt.key_data_prefix(ino)


def test_direct_mode_write_and_read_absorb_a_transient():
    sim = Simulator()
    plan = FaultPlan()
    h1, h2, dkeys = _direct_mode_file(sim, plan)

    before = attempts(sim)
    plan.flaky_key(dkeys, 1)       # the file's next data-object op fails
    assert h2.write(b"XYZ!", offset=0) == 4
    assert plan.flaky_keys[dkeys] == 0, "the fault must have fired"
    assert attempts(sim) == before + 1

    plan.flaky_key(dkeys, 1)
    assert h1.read(4, offset=0) == b"XYZ!"
    assert plan.flaky_keys[dkeys] == 0
    assert attempts(sim) == before + 2
    h1.close()
    h2.close()


def test_truncate_absorbs_a_transient_inside_truncate_data():
    sim = Simulator()
    plan = FaultPlan()
    cluster = build_arkfs(sim, n_clients=1, functional=True, faults=plan)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.write_file("/t.bin", b"0123456789", do_fsync=True)

    dkeys = cluster.prt.key_data_prefix(fs.stat("/t.bin").st_ino)
    before, t0 = attempts(sim), sim.now
    plan.flaky_key(dkeys, 1)       # the boundary object's read-modify-write
    fs.truncate("/t.bin", 4)
    assert plan.flaky_keys[dkeys] == 0
    assert attempts(sim) == before + 1
    # Absorbed by the verb's own 1 ms backoff, not by re-dispatching the
    # whole setattr after ``lease_retry_delay``.
    assert sim.now - t0 < DEFAULT_PARAMS.lease_retry_delay
    assert fs.read_file("/t.bin") == b"0123"


def test_retry_layer_rides_each_fault_shim_under_the_tier():
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=1, functional=True,
                          params=DEFAULT_PARAMS.with_(tier_enabled=True),
                          faults=FaultPlan())
    tier = cluster.store
    assert isinstance(tier, TieredObjectStore)
    for leg in (tier.hot, tier.cold):
        assert isinstance(leg, RetryingObjectStore)
        assert isinstance(leg.inner, FaultyObjectStore)


def test_caller_supplied_store_gets_the_retry_layer_without_faults():
    sim = Simulator()
    mine = InMemoryObjectStore(sim)
    cluster = build_arkfs(sim, n_clients=1, store=mine)
    assert isinstance(cluster.store, RetryingObjectStore)
    assert cluster.store.inner is mine


# -- the layer itself ---------------------------------------------------------

class _Flaky(InMemoryObjectStore):
    """Fails each verb's first call, before applying it."""

    def __init__(self, sim):
        super().__init__(sim)
        self.failed = set()


def _fail_first(verb):
    def method(self, *args, **kwargs):
        if verb not in self.failed:
            self.failed.add(verb)
            raise TransientError(verb)
        return (yield from getattr(InMemoryObjectStore, verb)(
            self, *args, **kwargs))
    return method


VERBS = ("get", "get_range", "put", "delete", "head", "list",
         "put_if_absent", "get_many", "put_many", "delete_many")
for _verb in VERBS:
    setattr(_Flaky, _verb, _fail_first(_verb))


def test_every_verb_runs_under_the_policy():
    sim = Simulator()
    flaky = _Flaky(sim)
    policy = RetryPolicy(sim, limit=2, base=1e-3, cap=2e-3)
    store = RetryingObjectStore(flaky, policy)
    run = sim.run_process

    run(store.put("a", b"abcdef"))
    assert run(store.get("a")) == b"abcdef"
    assert run(store.get_range("a", 1, 3)) == b"bcd"
    assert run(store.head("a")) == 6
    assert run(store.list("")) == ["a"]
    assert run(store.put_if_absent("a", b"zz")) is False
    run(store.put_many([("b", b"1"), ("c", b"2")]))
    assert run(store.get_many(["b", "missing", "c"])) == [b"1", None, b"2"]
    assert run(store.delete_many(["b", "missing"])) == 1
    run(store.delete("c"))
    assert flaky.failed == set(VERBS)
    assert policy._c_attempts.value == len(VERBS)
    # The inherited conveniences ride the retried verbs.
    assert run(store.exists("a")) is True
    assert run(store.delete_prefix("a")) == 1
    # Non-transient errors pass straight through; everything that is not
    # a verb is the wrapped store's.
    with pytest.raises(NoSuchKey):
        run(store.get("a"))
    assert "a" not in store and len(store) == 0
    assert store.sync_list("") == []


def test_gives_up_after_the_budget():
    sim = Simulator()
    inner = InMemoryObjectStore(sim)

    def always(key, src=None):
        raise TransientError("SlowDown")
        yield

    inner.get = always
    policy = RetryPolicy(sim, limit=2, base=1e-3, cap=8e-3)
    with pytest.raises(TransientError):
        sim.run_process(RetryingObjectStore(inner, policy).get("k"))
    assert policy._c_attempts.value == 2
    assert policy._c_giveups.value == 1
    assert sim.now == pytest.approx(3e-3)
