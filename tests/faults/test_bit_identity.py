"""Acceptance criterion: fault injection disabled ⇒ bit-identical results.

``build_arkfs(faults=None)`` (the default, and what the bench harness does
unless ``BENCH_OBS.fault_mode`` is set) installs *no* wrapper anywhere —
so a no-fault run is structurally guaranteed to execute the exact same
code as a build that predates the faults subsystem. These tests pin that
down from three angles: no shim is installed, repeated no-fault runs are
bit-identical (same sim clock, same network traffic, same store bytes —
which is what keeps BENCH_fig6.json unchanged), and the transient fault
mode surfaces its retry metrics in the bench output path.
"""

from repro.bench.harness import BENCH_OBS, build as bench_build
from repro.core import build_arkfs
from repro.faults import FaultPlan
from repro.faults.store import FaultyObjectStore
from repro.objectstore import RetryingObjectStore
from repro.obs import Observability
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator

from ..core.test_off_identity import fingerprint


def _workload(cluster, sim):
    """A small but layer-crossing workload: dirs, fsync'd files, renames,
    a checkpoint drain."""
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/w")
    fs.mkdir("/w/sub")
    for i in range(8):
        fs.write_file(f"/w/f{i}", bytes([i]) * (200 + i), do_fsync=True)
    fs.rename("/w/f0", "/w/sub/moved")
    fs.unlink("/w/f1")
    for client in cluster.clients:
        sim.run_process(client.sync())
    sim.run(until=sim.now + 3)


def test_harness_installs_no_shim_when_faults_disabled():
    assert BENCH_OBS.fault_mode is None, "default must be no faults"
    sim = Simulator()
    cluster, _mounts = bench_build("arkfs", sim, n_clients=2)
    assert not isinstance(cluster.store,
                          (FaultyObjectStore, RetryingObjectStore))
    assert cluster.net.faults is None


def test_no_fault_runs_bit_identical_on_realistic_store():
    """Two independent no-fault builds replay to identical clocks, network
    totals, store op counts, and store *bytes* — the property that keeps
    regenerated BENCH figures unchanged by this subsystem."""
    prints = []
    for _ in range(2):
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=2, seed=0)
        _workload(cluster, sim)
        prints.append(fingerprint(sim, cluster))
    assert prints[0] == prints[1]


def test_empty_armed_plan_changes_nothing_observable():
    """An installed-but-empty plan must not change semantics or the final
    stored bytes (it may not even cost sim time on the functional store)."""
    prints = []
    for faults in (None, FaultPlan()):
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=2, functional=True,
                              faults=faults)
        _workload(cluster, sim)
        prints.append(fingerprint(sim, cluster))
    assert prints[0] == prints[1]


def test_transient_fault_mode_metrics_reach_bench_output():
    """With ``--faults transient`` the harness-built cluster carries a
    plan, and the retry counters + backoff histogram land in the metrics
    snapshot that benchmarks attach to BENCH_*.json."""
    BENCH_OBS.fault_mode = "transient"
    BENCH_OBS.transient_every = 13
    try:
        sim = Simulator()
        cluster, _mounts = bench_build("arkfs", sim, n_clients=2)
        # The fault shim sits directly under the retry layer.
        assert isinstance(cluster.store, RetryingObjectStore)
        assert isinstance(cluster.store.inner, FaultyObjectStore)
        _workload(cluster, sim)
    finally:
        BENCH_OBS.fault_mode = None
        BENCH_OBS.transient_every = 101
    snap = Observability.of(sim).metrics.to_dict()
    assert snap["counters"]["faults.transient"] > 0
    assert snap["counters"]["store.retry.attempts"] > 0
    assert snap["counters"].get("store.retry.giveups", 0) == 0
    assert snap["histograms"]["store.retry.backoff"]["count"] > 0
