"""The experiment harness: every configuration builds and serves basic ops,
and the report renderers produce sane text."""

import pytest

from repro.bench import FS_KINDS, NET_50G, SMALL, build
from repro.bench.io500 import _geomean
from repro.bench.report import format_series, format_speedups, format_table
from repro.posix import OpenFlags, ROOT_CREDS
from repro.sim import Simulator
from repro.workloads import run_phase


@pytest.mark.parametrize("kind", FS_KINDS)
def test_every_configuration_builds_and_works(kind):
    """Smoke: mkdir + create + write + read + stat + unlink on each kind."""
    sim = Simulator()
    _cluster, mounts = build(kind, sim, n_clients=2, net=NET_50G)
    mount = mounts[0]

    def scenario():
        yield from mount.mkdir(ROOT_CREDS, "/smoke")
        h = yield from mount.open(
            ROOT_CREDS, "/smoke/f",
            OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
        yield from mount.write(h, b"smoke test payload")
        yield from mount.fsync(h)
        yield from mount.close(h)
        st = yield from mount.stat(ROOT_CREDS, "/smoke/f")
        assert st.st_size == 18
        names = yield from mount.readdir(ROOT_CREDS, "/smoke")
        assert names == ["f"]
        if kind != "marfs":  # MarFS reads fail by design (paper)
            h = yield from mount.open(ROOT_CREDS, "/smoke/f",
                                      OpenFlags.O_RDONLY)
            data = yield from mount.read(h, 100)
            assert data == b"smoke test payload"
            yield from mount.close(h)
        yield from mount.unlink(ROOT_CREDS, "/smoke/f")

    run_phase(sim, [sim.process(scenario())])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build("zfs", Simulator(), n_clients=1)


def test_s3_kinds_use_s3_profile():
    sim = Simulator()
    cluster, _m = build("s3fs", sim, n_clients=1)
    assert cluster.store.profile.name == "s3"
    sim2 = Simulator()
    cluster2, _m = build("arkfs", sim2, n_clients=1)
    assert cluster2.store.profile.name == "rados"


def test_ra400_configuration_widens_window():
    sim = Simulator()
    cluster, _m = build("arkfs-s3-ra400", sim, n_clients=1)
    assert cluster.params.max_readahead == 400 * 1024 * 1024


def test_no_pcache_configuration():
    sim = Simulator()
    cluster, _m = build("arkfs-no-pcache", sim, n_clients=1)
    assert not cluster.params.permission_cache


def test_io500_geomean():
    """IO500's score average: 0.0 with no phases, else the geometric mean."""
    assert _geomean([]) == 0.0
    assert _geomean([2.0, 8.0]) == 4.0
    # exp(log(5.0)) is one ulp below 5.0.
    assert _geomean([5.0]) == pytest.approx(5.0, rel=1e-15)


def test_cephfs_k16_has_16_mds():
    sim = Simulator()
    cluster, _m = build("cephfs-k16", sim, n_clients=1)
    assert len(cluster.mds.mds) == 16


class TestReport:
    ROWS = {"arkfs": {"CREATE": 100.0, "STAT": 200.0},
            "cephfs-k": {"CREATE": 10.0, "STAT": 40.0}}

    def test_format_table(self):
        out = format_table("T", self.ROWS, unit="ops/s", fmt="{:>10.1f}")
        assert "ArkFS" in out
        assert "CephFS-K (1 MDS)" in out
        assert "CREATE" in out and "STAT" in out
        assert "100.0" in out

    def test_format_table_handles_missing_columns(self):
        rows = {"arkfs": {"A": 1.0}, "s3fs": {"B": 2.0}}
        out = format_table("T", rows)
        assert "A" in out and "B" in out

    def test_format_series(self):
        out = format_series("S", {"arkfs": {1: 1.0, 4: 3.9}})
        assert "(clients)" in out
        assert "3.90" in out

    def test_format_speedups(self):
        out = format_speedups("ratios", self.ROWS, "arkfs", ["cephfs-k"])
        assert "10.00x" in out
        assert "5.00x" in out

    def test_format_speedups_inverted_for_times(self):
        rows = {"arkfs": {"Archiving": 100.0},
                "cephfs-f": {"Archiving": 300.0}}
        out = format_speedups("t", rows, "arkfs", ["cephfs-f"], invert=True)
        assert "3.00x" in out

    def test_scales_have_consistent_structure(self):
        from repro.bench import DEFAULT

        assert SMALL.mdtest_procs / SMALL.mdtest_nodes == \
            DEFAULT.mdtest_procs / DEFAULT.mdtest_nodes
        assert SMALL.scal_clients[0] == 1
        assert list(SMALL.scal_clients) == sorted(SMALL.scal_clients)
