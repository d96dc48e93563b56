"""Acceptance criterion: an optional subsystem left off ⇒ bit-identical results.

``pack_enabled``, ``shards_enabled``, ``tier_enabled`` and ``qos_enabled``
all default to ``False``, and a default build must stay structurally
identical to one that predates the subsystem — the same pattern
``faults=None`` pins for fault injection. Off means *absent*, not idle: no
pack layer (:class:`PackClient`, ``PackedCache``, ``PackedPRT``),
:class:`ShardedClient`, :class:`TieredObjectStore` or :class:`QosManager`
is constructed, and what the plain classes keep of them is an empty hook
that adds zero simulation events. Pinned from four angles:

* repeated default builds replay to identical clocks, network totals,
  store op counts and store *bytes* on the realistic store — on the three
  paper workload shapes the BENCH figures regenerate (fig4 mdtest-easy
  metadata, fig6a fio streaming, table2 tar small-file archiving) and on
  the two shapes that *would* engage pack and shards were they on;
* per subsystem, the default build constructs no such layer;
* per subsystem, an off run leaves no artefacts or metrics behind;
* per subsystem, the same workload with the flag ON does change the
  layout/plumbing — proving the off run's silence is the subsystem staying
  out of the way, not the workload being too small to trigger it — while
  every file still reads back identically.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict

import pytest

from repro.core import (DEFAULT_PARAMS, PRT, ArkFSClient, DataObjectCache,
                        PackClient, QosManager, WFQResource, build_arkfs)
from repro.core.qos import QosClient
from repro.obs import Observability
from repro.objectstore import TieredObjectStore
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator
from repro.sim.resources import Resource

# -- workload shapes -----------------------------------------------------------


def _fig4_mdtest(cluster, sim):
    """mdtest-easy shape: per-client flat dirs, create/stat/delete."""
    fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
    fs0.mkdir("/md")
    for c in range(2):
        fs = SyncFS(cluster.client(c), ROOT_CREDS)
        fs.mkdir(f"/md/c{c}")
        for i in range(12):
            fs.write_file(f"/md/c{c}/f{i}", b"", do_fsync=True)
        for i in range(12):
            fs.stat(f"/md/c{c}/f{i}")
        for i in range(0, 12, 2):
            fs.unlink(f"/md/c{c}/f{i}")


def _fig6a_fio(cluster, sim):
    """fio shape: one streaming file at the data-object size, read back."""
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/fio")
    fs.write_file("/fio/f", b"\x5a" * (6 * 1024 * 1024))
    sim.run_process(cluster.client(0).sync())
    sim.run_process(cluster.client(0).drop_caches())
    fs.read_file("/fio/f")


def _sync_and_settle(cluster, sim):
    for client in cluster.clients:
        sim.run_process(client.sync())
    sim.run(until=sim.now + 3)


def _table2_tar(cluster, sim):
    """tar archiving shape: many small files, fsync'd, then a drain."""
    fs = SyncFS(cluster.client(1), ROOT_CREDS)
    fs.mkdir("/tar")
    for i in range(10):
        fs.write_file(f"/tar/img{i}", bytes([i + 1]) * (20_000 + 331 * i),
                      do_fsync=(i % 3 == 0))
    _sync_and_settle(cluster, sim)


def _small_files(cluster, sim):
    """Small-file-heavy (everything far below pack_threshold, so packing
    WOULD engage if it were on), plus rename/unlink/truncate and a
    checkpoint drain."""
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/w")
    fs.mkdir("/w/sub")
    for i in range(8):
        fs.write_file(f"/w/f{i}", bytes([i + 1]) * (3000 + 17 * i),
                      do_fsync=True)
    fs.rename("/w/f0", "/w/sub/moved")
    fs.unlink("/w/f1")
    fs.truncate("/w/f2", 1000)
    _sync_and_settle(cluster, sim)


#: Wide-directory shape: 12 files in one directory (over any plausible
#: test threshold), plus the rename/unlink/readdir traffic whose routing
#: the shard layer intercepts when enabled.
N_WIDE = 12


def _wide_dir(cluster, sim):
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/wide")
    for i in range(N_WIDE):
        fs.write_file(f"/wide/f{i}", bytes([i + 1]) * (200 + 13 * i),
                      do_fsync=(i % 3 == 0))
    fs.rename("/wide/f0", "/wide/renamed")
    fs.unlink("/wide/f1")
    fs.readdir("/wide")
    _sync_and_settle(cluster, sim)


SHAPES = {
    "fig4": _fig4_mdtest,
    "fig6a": _fig6a_fio,
    "table2": _table2_tar,
    "small_files": _small_files,
    "wide_dir": _wide_dir,
}


def backing_of(cluster):
    # The realistic ClusterObjectStore keeps its bytes (and sync_* helpers)
    # on an in-memory backing store; the functional build IS that store.
    return getattr(cluster.store, "backing", cluster.store)


def fingerprint(sim, cluster):
    backing = backing_of(cluster)
    content = {k: bytes(backing.sync_get(k)) for k in backing.sync_list("")}
    return {
        "now": sim.now,
        "messages": cluster.net.messages_sent,
        "bytes": cluster.net.bytes_sent,
        "store_ops": dict(backing.op_counts),
        "content": content,
    }


def _metrics(sim):
    return Observability.of(sim).metrics.to_dict()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_default_build_runs_bit_identical(shape):
    """Two independent default (everything off) builds replay each shape
    to identical clocks, network totals, store op counts, and store bytes
    — what keeps the regenerated BENCH figures unchanged by any of the
    optional subsystems."""
    prints = []
    for _ in range(2):
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=2, seed=0)
        SHAPES[shape](cluster, sim)
        prints.append(fingerprint(sim, cluster))
    assert prints[0] == prints[1]


# -- per-subsystem tables --------------------------------------------------------


@dataclass
class Subsystem:
    flag: str                               # the ArkFSParams switch
    shape: str                              # shape that would engage it
    absent: Callable[[Any, Any], None]      # default build: no such layer
    no_artifacts: Callable[[Any, Any], None]  # off run: nothing left behind
    read_back: Callable[[Any], Dict[str, Any]]  # contents, via ``reader``
    observe: Callable[[Any, Any], Any]      # layout/plumbing evidence
    on_control: Callable[[Any, Any], None]  # (off evidence, on evidence)
    reader: int = 0                         # client that reads back
    on_params: Dict[str, Any] = field(default_factory=dict)


def _pack_absent(cluster, sim):
    assert type(cluster.prt) is PRT
    for client in cluster.clients:
        assert type(client.cache) is DataObjectCache
        assert not isinstance(client, PackClient)
        assert not hasattr(client, "pack")


def _pack_no_artifacts(cluster, sim):
    """No container/index objects in the store and no pack metric scopes
    registered."""
    keys = backing_of(cluster).sync_list("")
    assert not [k for k in keys if k[0] in ("p", "x")]
    assert not [k for k in _metrics(sim)["counters"] if ".pack." in k]


def _pack_on_control(off_kinds, on_kinds):
    assert "p" not in off_kinds and "x" not in off_kinds
    assert "p" in on_kinds and "x" in on_kinds
    assert "d" not in on_kinds   # everything was sub-threshold


#: What only a ShardedClient carries.
SHARD_ATTRS = ("_shard_maps", "_shard_home", "_split_busy", "_splitters",
               "_dir_inflight", "peers")


def _shards_absent(cluster, sim):
    for client in cluster.clients:
        assert type(client) is ArkFSClient
        assert [a for a in SHARD_ATTRS if hasattr(client, a)] == []


def _shards_no_artifacts(cluster, sim):
    """No shard-map (``s``) objects in the store and no shard client — even
    though the directory grew far past what a test-scale split threshold
    would be."""
    assert not [k for k in backing_of(cluster).sync_list("s")]
    _shards_absent(cluster, sim)


def _shards_read_back(fs):
    contents = {"/wide/renamed": fs.read_file("/wide/renamed")}
    for i in range(2, N_WIDE):
        contents[f"/wide/f{i}"] = fs.read_file(f"/wide/f{i}")
    contents["readdir:/wide"] = fs.readdir("/wide")
    return contents


def _shards_on_control(off_maps, on_maps):
    assert off_maps == []
    assert on_maps != [], \
        "the ON control must actually split, or the identity tests prove " \
        "nothing"


def _tier_absent(cluster, sim):
    assert not isinstance(cluster.store, TieredObjectStore)
    assert getattr(cluster.store, "tier_maintain", None) is None
    assert getattr(cluster.store, "tier_drain_all", None) is None
    assert not [k for k in _metrics(sim)["counters"] if k.startswith("tier.")]


def _tier_no_artifacts(cluster, sim):
    snap = _metrics(sim)
    assert not [k for k in snap["counters"] if k.startswith("tier.")]
    assert not [k for k in snap["gauges"] if k.startswith("tier.")]


def _tier_on_control(off_store, tier):
    assert isinstance(tier, TieredObjectStore)
    assert tier.stats["staged_puts"] > 0
    assert tier.stats["drained_objects"] > 0
    assert tier.tier_dirty_keys() == []  # sync drained everything
    assert not isinstance(off_store, TieredObjectStore)


#: What only a client with the QoS layer carries.
QOS_ATTRS = ("qos", "_qos_depth")


def _qos_absent(cluster, sim):
    assert cluster.qos is None
    for client in cluster.clients:
        assert not isinstance(client, QosClient)
        assert [a for a in QOS_ATTRS if hasattr(client, a)] == []
    # FIFO queues everywhere: plain Resources, never the WFQ subclass.
    mgr_cpu = cluster.lease_manager.node.cpu
    assert type(mgr_cpu) is Resource and not isinstance(mgr_cpu, WFQResource)
    assert cluster.lease_manager.tenants == {}
    for osd in cluster.store.osds:
        assert type(osd.queue) is Resource
    assert not [k for k in _metrics(sim)["counters"] if k.startswith("qos.")]


def _qos_no_artifacts(cluster, sim):
    snap = _metrics(sim)
    assert not [k for k in snap["counters"] if k.startswith("qos.")]
    assert not [k for k in snap["histograms"] if k.startswith("tenant.")]


def _qos_on_control(off, on):
    on_cluster, on_sim = on
    assert isinstance(on_cluster.qos, QosManager)
    assert all(isinstance(c, QosClient) for c in on_cluster.clients)
    assert isinstance(on_cluster.lease_manager.node.cpu, WFQResource)
    assert on_cluster.lease_manager.tenants is on_cluster.qos.client_tenant
    assert _metrics(on_sim)["counters"]["qos.admitted"] > 0
    assert off[0].qos is None


def _tar_read_back(fs):
    return {f"/tar/img{i}": fs.read_file(f"/tar/img{i}") for i in range(10)}


SUBSYSTEMS = {
    "pack": Subsystem(
        flag="pack_enabled", shape="small_files",
        absent=_pack_absent, no_artifacts=_pack_no_artifacts,
        on_params=dict(pack_threshold=64 * 1024,
                       pack_target_size=256 * 1024, pack_seal_age=0.5),
        reader=1,
        read_back=lambda fs: {name: fs.read_file(name) for name in
                              ("/w/sub/moved", "/w/f2", "/w/f3", "/w/f7")},
        observe=lambda cluster, sim: sorted(
            {k[0] for k in backing_of(cluster).sync_list("")}),
        on_control=_pack_on_control),
    "shards": Subsystem(
        flag="shards_enabled", shape="wide_dir",
        absent=_shards_absent, no_artifacts=_shards_no_artifacts,
        on_params=dict(shard_split_threshold=6, shard_fanout=4),
        reader=1, read_back=_shards_read_back,
        observe=lambda cluster, sim: sorted(
            backing_of(cluster).sync_list("s")),
        on_control=_shards_on_control),
    "tier": Subsystem(
        flag="tier_enabled", shape="table2",
        absent=_tier_absent, no_artifacts=_tier_no_artifacts,
        on_params=dict(tier_hot_capacity=256 * 1024,
                       tier_dirty_max=128 * 1024, tier_drain_interval=0.25),
        read_back=_tar_read_back,
        observe=lambda cluster, sim: cluster.store,
        on_control=_tier_on_control),
    "qos": Subsystem(
        flag="qos_enabled", shape="table2",
        absent=_qos_absent, no_artifacts=_qos_no_artifacts,
        read_back=_tar_read_back,
        observe=lambda cluster, sim: (cluster, sim),
        on_control=_qos_on_control),
}

_each_subsystem = pytest.mark.parametrize("name", sorted(SUBSYSTEMS))


@_each_subsystem
def test_default_is_off_and_builds_no_such_layer(name):
    sub = SUBSYSTEMS[name]
    assert getattr(DEFAULT_PARAMS, sub.flag) is False, \
        f"{name} must stay opt-in: the default run is the paper baseline"
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, seed=0)
    sub.absent(cluster, sim)


@_each_subsystem
def test_off_leaves_no_artifacts_or_metrics(name):
    """The subsystem is absent, not merely idle, after the shape that
    would have engaged it."""
    sub = SUBSYSTEMS[name]
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True, seed=0)
    SHAPES[sub.shape](cluster, sim)
    sub.no_artifacts(cluster, sim)


@_each_subsystem
def test_on_changes_layout_or_plumbing_but_not_contents(name):
    """Control for the identity tests: the same workload with the flag ON
    does engage the subsystem, while every file still reads back
    identically."""
    sub = SUBSYSTEMS[name]
    contents, evidence = {}, {}
    for enabled in (False, True):
        sim = Simulator()
        params = DEFAULT_PARAMS.with_(**{sub.flag: enabled}, **sub.on_params)
        cluster = build_arkfs(sim, n_clients=2, params=params,
                              functional=True, seed=0)
        SHAPES[sub.shape](cluster, sim)
        fs = SyncFS(cluster.client(sub.reader), ROOT_CREDS)
        contents[enabled] = sub.read_back(fs)
        evidence[enabled] = sub.observe(cluster, sim)
    assert contents[False] == contents[True]
    sub.on_control(evidence[False], evidence[True])
