"""QoS tenancy is a client layer chosen once in ``build_arkfs``.

``QosClient`` goes over whichever client class the other flags picked, and
owns admission, the ``TenantBusy`` retry, the byte throttle and crash
release. These tests pin the composition and the nested-op rule: an
authority op that one fs op fans into (a split directory's shard readdirs,
a cross-shard rename's 2PC prepares, an rmdir's child surrender) rides the
admission of the op that started it.
"""

import pytest

from repro.core import DEFAULT_PARAMS, build_arkfs
from repro.core.qos import QosClient
from repro.core.sharded_client import ShardedClient
from repro.obs import Observability
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator

QOS_SHARDS = DEFAULT_PARAMS.with_(qos_enabled=True, shards_enabled=True,
                                  shard_split_threshold=6, shard_fanout=4)


def _split_dirs(functional):
    """Client 0 of a qos+shards build, with /d split (8 files) and /e
    split then emptied."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, params=QOS_SHARDS,
                          functional=functional, seed=0)
    client = cluster.client(0)
    fs = SyncFS(client, ROOT_CREDS)
    fs.mkdir("/d")
    fs.mkdir("/e")
    for i in range(8):
        fs.write_file(f"/d/f{i}", b"x" * 10)
        fs.write_file(f"/e/g{i}", b"")
    sim.run(until=sim.now + 1)
    for i in range(8):
        fs.unlink(f"/e/g{i}")
    return sim, client, fs


def test_qos_over_shards_is_both_layers():
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, params=QOS_SHARDS, seed=0)
    for client in cluster.clients:
        assert isinstance(client, ShardedClient)
        assert isinstance(client, QosClient)
        # The layer sits on top: its admission wraps the shard routing.
        mro = type(client).__mro__
        assert mro.index(QosClient) < mro.index(ShardedClient)
    assert type(cluster.client(0)) is type(cluster.client(1))


@pytest.mark.parametrize("functional", [True, False],
                         ids=["functional", "timed"])
def test_nested_authority_ops_are_not_admitted_again(functional):
    """Each fs op below is one admission however many authority ops it
    fans into (deltas as measured before the layer existed)."""
    sim, client, fs = _split_dirs(functional)
    d = fs.stat("/d").st_ino
    smap = client._shard_maps[d]
    assert fs.stat("/e").st_ino in client._shard_maps
    dst = next(f"z{k}" for k in range(50)
               if smap.route(f"z{k}") != smap.route("f0"))

    admitted = Observability.of(sim).metrics.counter("qos.admitted")
    dispatched = []
    layer_op = client._authority_op

    def counting(dir_ino, opname, creds, **kwargs):
        dispatched.append(opname)
        return layer_op(dir_ino, opname, creds, **kwargs)

    client._authority_op = counting

    def deltas(fn):
        a0, n0 = admitted.value, len(dispatched)
        fn()
        return admitted.value - a0, dispatched[n0:]

    n, ops = deltas(lambda: fs.readdir("/d"))
    assert n == 1 and ops == ["readdir"] * 5
    n, ops = deltas(lambda: fs.rename("/d/f0", f"/d/{dst}"))
    assert n == 1 and ops == ["rename_local", "rename_prepare_src",
                              "rename_prepare_dst"]
    n, ops = deltas(lambda: fs.rmdir("/e"))
    assert n == 1 and ops == ["rmdir"]
    assert sorted(fs.readdir("/d")) == sorted(
        [f"f{i}" for i in range(1, 8)] + [dst])


@pytest.mark.xfail(strict=True, reason="ROADMAP 1 bug (viii): the nested-op "
                   "depth is per client, so a second concurrent top-level "
                   "op of the same client skips admission")
def test_concurrent_top_level_ops_of_one_client_are_each_admitted():
    params = DEFAULT_PARAMS.with_(qos_enabled=True, qos_max_inflight=1)
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=1, params=params, seed=1)
    client = cluster.client(0)
    admitted = Observability.of(sim).metrics.counter("qos.admitted")
    procs = [sim.process(client.mkdir(ROOT_CREDS, f"/m{i}"))
             for i in range(2)]
    sim.run(until=sim.all_of(procs))
    assert all(p.ok for p in procs)
    assert admitted.value == 2
