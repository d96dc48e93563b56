"""Integration tests: FaultPlan injected beneath a live ArkFS cluster.

Each test builds a functional cluster with ``build_arkfs(faults=plan)``
and shows one fault class being absorbed by the layer that owns it:
transient store errors by bounded-backoff retries, partial batch PUTs by
idempotent re-puts, dropped lease RPCs by the client's message-retry
loop, and a full control-plane partition by lease expiry + takeover.
"""

import pytest

from repro.core import build_arkfs, fsck
from repro.faults import FaultPlan, FaultyObjectStore
from repro.obs import Observability
from repro.objectstore.errors import TransientError
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator


def metrics(sim):
    return Observability.of(sim).metrics.to_dict()


def test_transient_errors_absorbed_with_bounded_backoff():
    """A window of injected store failures costs retries and backoff time
    — never correctness, never a giveup."""
    sim = Simulator()
    plan = FaultPlan().fail_ops(30, 40)
    cluster = build_arkfs(sim, n_clients=2, functional=True, faults=plan)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/t")
    for i in range(6):
        fs.write_file(f"/t/f{i}", bytes([i]) * 50, do_fsync=True)
    sim.run_process(cluster.client(0).sync())
    sim.run(until=sim.now + 3)

    snap = metrics(sim)
    assert snap["counters"]["faults.transient"] > 0
    assert snap["counters"]["store.retry.attempts"] > 0
    assert snap["counters"].get("store.retry.giveups", 0) == 0
    hist = snap["histograms"]["store.retry.backoff"]
    assert hist["count"] > 0
    assert hist["max"] <= cluster.params.store_retry_cap

    for i in range(6):
        assert fs.read_file(f"/t/f{i}") == bytes([i]) * 50
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.summary()


def test_persistently_flaky_key_exhausts_retries():
    """A key that never stops failing must surface as an error after the
    bounded retry budget — not hang the client in an infinite loop."""
    sim = Simulator()
    plan = FaultPlan()
    cluster = build_arkfs(sim, n_clients=1, functional=True, faults=plan)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/g")
    plan.flaky_key("d", 10_000)  # every data-object op fails, forever
    with pytest.raises(TransientError):
        fs.write_file("/g/x", b"y" * 100, do_fsync=True)
    assert metrics(sim)["counters"]["store.retry.giveups"] >= 1


def test_partial_batch_put_converges_on_retry():
    """A batch PUT that applies a prefix then fails is repaired by simply
    re-putting the whole batch (ArkFS store writes are idempotent) — which
    is what the retry layer riding above the shim does."""
    sim = Simulator()
    plan = FaultPlan().fail_batch_put(1, apply_items=2)
    cluster = build_arkfs(sim, n_clients=1, functional=True, faults=plan)
    store = cluster.store
    shim = store.inner           # the raw FaultyObjectStore, no retry
    assert isinstance(shim, FaultyObjectStore)
    src = cluster.client(0).node
    items = [(f"zz/{i}", bytes([i])) for i in range(5)]

    with pytest.raises(TransientError):
        sim.run_process(shim.put_many(items, src=src))
    assert store.sync_list("zz/") == ["zz/0", "zz/1"], \
        "exactly the configured prefix must have landed"
    sim.run_process(store.put_many(items, src=src))
    assert sorted(store.sync_list("zz/")) == [k for k, _ in items]
    assert metrics(sim)["counters"]["faults.batch_partial"] == 1

    # Through the layered store the same fault never surfaces: the partial
    # batch is re-put whole, once.
    plan.fail_batch_put(plan.batches_seen + 1, apply_items=2)
    more = [(f"yy/{i}", bytes([i])) for i in range(5)]
    sim.run_process(store.put_many(more, src=src))
    assert sorted(store.sync_list("yy/")) == [k for k, _ in more]
    assert metrics(sim)["counters"]["faults.batch_partial"] == 2
    assert metrics(sim)["counters"]["store.retry.attempts"] == 1


def test_dropped_lease_rpc_retried_not_fatal():
    """One lost client->manager message costs an RPC timeout + retry; the
    operation still succeeds."""
    sim = Simulator()
    plan = FaultPlan().drop_messages(src="client0", dst="lease-mgr", count=1)
    cluster = build_arkfs(sim, n_clients=2, functional=True, faults=plan)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    t0 = sim.now
    fs.mkdir("/d")
    assert fs.exists("/d")
    assert sim.now - t0 >= cluster.net.params.rpc_timeout_s, \
        "the drop must cost the sender its RPC timeout"
    assert metrics(sim)["counters"]["faults.msg_dropped"] == 1


def test_delayed_message_slows_but_succeeds():
    sim = Simulator()
    plan = FaultPlan().delay_messages(0.5, src="client0", dst="lease-mgr",
                                      count=1)
    cluster = build_arkfs(sim, n_clients=1, functional=True, faults=plan)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    t0 = sim.now
    fs.mkdir("/d")
    assert fs.exists("/d")
    assert sim.now - t0 >= 0.5
    assert metrics(sim)["counters"]["faults.msg_delayed"] == 1


def test_partition_forces_lease_expiry_and_takeover():
    """Dropping every message between the lease holder and the manager
    partitions the holder's control plane: its lease runs out and another
    client takes over the directory — with the journaled state intact."""
    sim = Simulator()
    plan = FaultPlan()
    cluster = build_arkfs(sim, n_clients=2, functional=True, faults=plan)
    fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
    fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
    fs0.mkdir("/p")
    fs0.write_file("/p/owned", b"v1", do_fsync=True)

    plan.drop_messages(src="client0", dst="lease-mgr", count=None)
    plan.drop_messages(src="lease-mgr", dst="client0", count=None)
    sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)

    fs1.write_file("/p/taken", b"v2", do_fsync=True)
    assert fs1.read_file("/p/owned") == b"v1"
    assert sorted(fs1.readdir("/p")) == ["owned", "taken"]
    sim.run_process(cluster.client(1).sync())
    sim.run(until=sim.now + 3)
    report = sim.run_process(fsck(cluster.prt, src=cluster.client(1).node))
    assert report.clean, report.summary()


def test_decision_audit_clean_on_healthy_renames():
    """Cross-directory renames write 2PC decision records; a healthy run
    must never trip the immutability audit."""
    sim = Simulator()
    plan = FaultPlan()
    cluster = build_arkfs(sim, n_clients=2, functional=True, faults=plan)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/a")
    fs.mkdir("/b")
    for i in range(5):
        fs.write_file(f"/a/f{i}", bytes([i]))
        fs.rename(f"/a/f{i}", f"/b/g{i}")
    sim.run_process(cluster.client(0).sync())
    sim.run(until=sim.now + 3)
    assert plan.violations == []


def test_decision_audit_catches_overwrite():
    """Flipping a decision record (commit -> abort) is exactly the protocol
    violation the audit exists to surface."""
    sim = Simulator()
    plan = FaultPlan()
    cluster = build_arkfs(sim, n_clients=1, functional=True, faults=plan)
    src = cluster.client(0).node
    sim.run_process(cluster.store.put("tTX-audit", b"commit", src=src))
    assert plan.violations == []
    sim.run_process(cluster.store.put("tTX-audit", b"abort", src=src))
    assert any("overwritten" in v for v in plan.violations)
