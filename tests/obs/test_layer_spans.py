"""Layer spans, recorded from outside the code they time.

``repro.obs.trace.LAYER_SPANS`` names every layer boundary a full trace
records, and ``install_layer_spans`` puts a dispatcher on each such method
of a built cluster's instances. These tests keep the table from rotting:
it lands on the components every harness build has, a row naming a
missing method fails at install, removal leaves the instances as they
were, and full traces of the archiving scenario (Table II) and of a
plain data-path run (truncate, unlink, DIRECT reads and writes) have spans
from every layer.
"""

from dataclasses import replace

import pytest

from repro.bench import BENCH_OBS, FS_KINDS, NET_50G, SMALL, build
from repro.bench.figures import table2_archiving
from repro.core import build_arkfs
from repro.obs import (
    LAYER_SPANS,
    Observability,
    install_layer_spans,
    remove_layer_spans,
)
from repro.obs import trace as trace_mod
from repro.posix import OpenFlags, ROOT_CREDS, SyncFS
from repro.sim import Simulator

ARKFS_ROWS = {"store", "clients.prt", "clients.cache", "clients.journal"}
#: The components each build offers the table, by file-system kind.
ROWS = {
    **{kind: ARKFS_ROWS for kind in FS_KINDS if kind.startswith("arkfs")},
    **{kind: {"store", "mds", "clients.prt", "clients.cache"}
       for kind in ("cephfs-k", "cephfs-k16", "cephfs-f", "marfs")},
    "s3fs": {"store"},
    "goofys": {"store"},
}

#: The layer-span prefixes of a full trace.
LAYERS = ("vfs.", "rpc:lease.", "journal.", "prt.", "cache.", "store.")


@pytest.fixture
def untraced(monkeypatch):
    monkeypatch.setattr(BENCH_OBS, "tracing", False)
    monkeypatch.setattr(BENCH_OBS, "sample_rate", 0.0)


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.setattr(BENCH_OBS, "tracing", True)


def _build(kind: str):
    return build(kind, Simulator(), n_clients=2, net=NET_50G)[0]


def _instance_attrs(cluster):
    """The instance attributes of every object a dispatcher could land on."""
    objs = [*cluster.net.nodes.values()]
    for where, _cat, _methods in LAYER_SPANS:
        objs += trace_mod._components(cluster, where)
    return {id(o): set(vars(o)) for o in objs}


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_installs_on_every_build_and_removes_cleanly(untraced, kind):
    cluster = _build(kind)
    assert {where for where, _cat, _methods in LAYER_SPANS
            if trace_mod._components(cluster, where)} == ROWS[kind]
    before = _instance_attrs(cluster)
    installed = install_layer_spans(cluster)
    assert {attr for obj, attr in installed if obj in
            cluster.net.nodes.values()} == {"call"}
    for obj, attr in installed:
        assert attr in vars(obj)
    remove_layer_spans(installed)
    assert _instance_attrs(cluster) == before


def test_a_row_naming_a_missing_method_raises_at_install(untraced,
                                                         monkeypatch):
    monkeypatch.setattr(trace_mod, "LAYER_SPANS", LAYER_SPANS + (
        ("clients.cache", "cache", {"no_such_method": "cache.gone"}),))
    cluster, _mounts = build("arkfs", Simulator(), n_clients=1)
    with pytest.raises(AttributeError, match="no_such_method"):
        install_layer_spans(cluster)


def _prefixes(tracer):
    return {p for p in LAYERS for s in tracer.spans if s.name.startswith(p)}


def test_full_traces_of_table2_and_the_data_path_cover_every_layer(traced):
    tiny = replace(SMALL, tar_procs=2, tar_nodes=2, tar_images_per_proc=4,
                   tar_image_kb=20.0)
    table2_archiving(tiny, kinds=("arkfs",))
    [(_kind, obs)] = BENCH_OBS.collected
    table2 = _prefixes(obs.tracer)

    # The PRT's own data path: written and synced files, then a truncate,
    # an unlink, and a write and a read of a file two clients hold open
    # for writing (DIRECT mode: no client cache, straight to the PRT).
    sim = Simulator()
    tracer = Observability.of(sim).enable_tracing(pid_name="data-path")
    cluster = build_arkfs(sim, n_clients=2, functional=True)
    install_layer_spans(cluster)
    fs = SyncFS(cluster.mounts[0], ROOT_CREDS)
    fs2 = SyncFS(cluster.mounts[1], ROOT_CREDS)
    fs.mkdir("/a")
    for i in range(3):
        fs.write_file(f"/a/f{i}", bytes([i + 1]) * 50_000)
    sim.run_process(cluster.client(0).sync())
    fs.truncate("/a/f1", 1_000)
    fs.unlink("/a/f2")
    h1 = fs.open("/a/f0", OpenFlags.O_RDWR)
    h2 = fs2.open("/a/f0", OpenFlags.O_RDWR)
    h1.read(4)
    h2.read(4)
    h2.write(b"NEW!", offset=0)
    assert cluster.client(0).fleases.is_direct(fs.stat("/a/f0").st_ino)
    assert h1.read(4, offset=0) == b"NEW!"
    h1.close()
    h2.close()
    sim.run(until=sim.now + 3)
    data_path = _prefixes(tracer)
    prt_spans = {s.name for s in tracer.spans if s.name.startswith("prt.")}

    assert set(LAYERS) - {"prt."} <= table2
    assert {"vfs.", "prt."} <= data_path
    assert prt_spans == {"prt.read_data", "prt.write_data",
                         "prt.truncate_data", "prt.delete_data"}


def test_full_trace_records_build_time_background_tracks(traced):
    """Full tracing starts before the build, so a process the build spawns
    (a client's journal commit thread) records its own spans."""
    sim = Simulator()
    _cluster, mounts = build("arkfs", sim, n_clients=1, net=NET_50G)
    fs = SyncFS(mounts[0], ROOT_CREDS)
    fs.mkdir("/d")
    fs.write_file("/d/f", b"x", do_fsync=False)   # journaled, not committed
    sim.run(until=sim.now + 1.5)                  # the commit thread runs
    tracer = Observability.of(sim).tracer
    commits = [s for s in tracer.spans if s.name == "journal.commit"
               and tracer.tid_names[s.tid].startswith("client0.journal")]
    assert commits and all(s.parent is None for s in commits)
