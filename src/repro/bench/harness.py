"""Experiment harness: named file-system configurations and scales.

Maps the paper's Table I deployment onto simulated clusters and provides
one builder per evaluated configuration. All benchmarks are *scaled down*
from the paper's sizes (1M files / 1 TB of fio traffic do not fit a unit
test); EXPERIMENTS.md documents each scale factor and why the model is
size-linear in the relevant regime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from ..baselines import (
    CephClientParams,
    MDSParams,
    CEPH_MDS,
    build_cephfs,
    build_goofys,
    build_marfs,
    build_s3fs,
    GoofysParams,
)
from ..core import DEFAULT_PARAMS, build_arkfs
from ..obs import Observability, Series, install_layer_spans
from ..objectstore.profiles import (KiB, MiB, RADOS_PROFILE, S3_COLD_PROFILE,
                                    S3_PROFILE)
from ..sim.engine import Simulator
from ..sim.network import NetParams

__all__ = ["Scale", "SMALL", "DEFAULT", "build", "FS_KINDS", "BENCH_OBS"]


#: The paper's cluster (Table I): 16 storage nodes (c5n.9xlarge, 50 Gb),
#: client nodes c5a.8xlarge (10 Gb) for scalability runs and c5n.9xlarge
#: (50 Gb) elsewhere.
NET_10G = NetParams(latency_s=50e-6, bandwidth_bps=10e9 / 8)
NET_50G = NetParams(latency_s=50e-6, bandwidth_bps=50e9 / 8)


@dataclass(frozen=True)
class Scale:
    """Workload sizes for the benchmark suite."""

    # mdtest (paper: 1M files, 16 processes over a few client nodes —
    # processes sharing a mount is what exposes ceph-fuse's client lock)
    mdtest_procs: int = 16
    mdtest_nodes: int = 4
    easy_files_per_proc: int = 250
    hard_files_per_proc: int = 100
    hard_dirs: int = 8

    # fio (paper: 32 procs x 32 GiB, 128 KiB requests)
    fio_procs: int = 4
    fio_nodes: int = 2
    fio_file: int = 48 * MiB
    fio_block: int = 128 * KiB

    # scalability (paper: 1..512 clients)
    scal_clients: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    scal_files_per_client: int = 40

    # archiving (paper: 32 procs x 41K images of ~170 KB, 7 GB per dataset,
    # several processes per client node)
    tar_procs: int = 8
    tar_nodes: int = 2
    tar_images_per_proc: int = 600
    tar_image_kb: float = 50.0


DEFAULT = Scale()

#: Reduced scale for CI-speed runs: the same *structure* as DEFAULT
#: (processes per node, node counts) with smaller work counts, so every
#: paper shape survives the reduction.
SMALL = Scale(
    mdtest_procs=8, mdtest_nodes=2, easy_files_per_proc=100,
    hard_files_per_proc=50, hard_dirs=4,
    fio_procs=4, fio_nodes=2, fio_file=32 * MiB,
    scal_clients=(1, 2, 4, 8, 16, 32, 64), scal_files_per_client=25,
    tar_procs=8, tar_nodes=2, tar_images_per_proc=150, tar_image_kb=50.0,
)


class BenchObs:
    """Run-scoped observability settings for harness-built clusters.

    Every :func:`build` call attaches an :class:`~repro.obs.Observability`
    to its simulation, registers the shared bottleneck resources for
    queue-depth/utilization sampling (MDS service slots, the directory
    leader's lease-manager CPU, per-OSD queues), and records ``(kind,
    obs)`` here so reporting layers — the bench CLI's trace export, the
    benchmarks' counter pins — can drain what a run produced.
    Span tracing is off unless ``tracing`` is set (``--trace`` in the CLI):
    sampling only reads resource state, but a full span record costs
    memory proportional to the operation count.
    """

    def __init__(self):
        self.tracing = False
        # Always-on tier: deterministic per-root-op sampled tracing,
        # slow-op attribution log, and flight recorder — cheap enough to
        # ship enabled by default on every harness build. ``tracing`` (the
        # --trace flag) still means *full* tracing and overrides the rate.
        # Resource sampling is on for every build.
        self.sample_rate = 0.01
        self.slowlog = True
        self.recorder = True
        self.collected = []  # (kind, Observability) in build order
        # Fault-injection mode for arkfs builds: None (default, no shim
        # installed at all — bit-identical results) or "transient"
        # (deterministic periodic TransientErrors; the retry counters and
        # backoff histogram then show up in the run's metrics).
        self.fault_mode = None
        self.transient_every = 101

    def reset(self, tracing: bool = None) -> None:
        # Unhook the samplers too: a caller that keeps one ``obs`` for its
        # metrics must not keep that cluster's resources alive through it.
        for _kind, obs in self.collected:
            obs.stop_sampling()
        self.collected.clear()
        if tracing is not None:
            self.tracing = tracing

    def tracers(self):
        return [obs.tracer for _, obs in self.collected
                if obs.tracer is not None]

    def counter_series(self):
        """``(pid, label, Series)`` triples for the chrome-trace export's
        counter tracks, pid-aligned with :meth:`tracers`' span tracks."""
        out = []
        for i, (_kind, obs) in enumerate(self.collected):
            pid = obs.tracer.pid if obs.tracer is not None else i + 1
            for name, metric in obs.metrics.items():
                if isinstance(metric, Series) and metric.times:
                    out.append((pid, name, metric))
        return out


BENCH_OBS = BenchObs()


def _attach_obs(kind: str, sim: Simulator, cluster) -> None:
    """Attach tracing/sampling per BENCH_OBS and record the build; under
    full tracing, install the layer boundaries on the built cluster."""
    obs = Observability.of(sim)
    if BENCH_OBS.tracing:
        # A no-op after ``build``, which enables full tracing before the
        # build; a caller that builds its own cluster gets it here.
        obs.enable_tracing(pid=len(BENCH_OBS.collected) + 1, pid_name=kind)
    elif BENCH_OBS.sample_rate > 0:
        obs.enable_tracing(pid=len(BENCH_OBS.collected) + 1, pid_name=kind,
                           sample_rate=BENCH_OBS.sample_rate)
    if sim.tracer is not None:
        install_layer_spans(cluster)
    if BENCH_OBS.slowlog:
        obs.enable_slowlog()
    if BENCH_OBS.recorder:
        obs.enable_recorder()
    store = getattr(cluster, "store", None)
    for osd in getattr(store, "osds", ()):
        obs.sample_resource(f"osd{osd.index}.q", osd.queue)
    # Tiered backend: sample both tiers' OSD queues, name-prefixed.
    for tier_name in ("hot", "cold"):
        tier_store = getattr(store, tier_name, None)
        for osd in getattr(tier_store, "osds", ()):
            obs.sample_resource(f"{tier_name}.osd{osd.index}.q", osd.queue)
    mds = getattr(cluster, "mds", None)
    if mds is not None:  # cephfs / marfs metadata service
        for m in mds.mds:
            obs.sample_resource(f"mds{m.index}.slots", m.slots)
    mgr = getattr(cluster, "lease_manager", None)
    if mgr is not None:  # arkfs directory leader
        obs.sample_resource("lease-mgr.cpu", mgr.node.cpu)
    obs.start_sampling()
    BENCH_OBS.collected.append((kind, obs))


FS_KINDS = (
    "arkfs",            # ArkFS-pcache on RADOS (the default configuration)
    "arkfs-no-pcache",
    "arkfs-s3",         # ArkFS (ra 8 MB) on the S3 profile
    "arkfs-s3-ra400",   # ArkFS with 400 MB read-ahead on S3
    "arkfs-cold",       # ArkFS on the cold-S3 profile (single tier)
    "arkfs-tier",       # ArkFS, hot RADOS tier over the cold-S3 tier
    "cephfs-k",         # kernel mount, 1 MDS
    "cephfs-k16",       # kernel mount, 16 MDSs
    "cephfs-f",         # ceph-fuse mount, 1 MDS
    "marfs",
    "s3fs",
    "goofys",
)


def build(kind: str, sim: Simulator, n_clients: int,
          net: NetParams = NET_50G, cache_capacity: int = 96 * MiB,
          client_cores: int = 32):
    """Build a named configuration; returns (cluster, mounts).

    Also attaches per-:data:`BENCH_OBS` observability (resource sampling
    always; span tracing when enabled for the run). Full tracing is enabled
    before the build, so the build's background processes are traced."""
    if BENCH_OBS.tracing:
        Observability.of(sim).enable_tracing(
            pid=len(BENCH_OBS.collected) + 1, pid_name=kind)
    cluster, mounts = _build(kind, sim, n_clients, net, cache_capacity,
                             client_cores)
    _attach_obs(kind, sim, cluster)
    return cluster, mounts


def _build(kind: str, sim: Simulator, n_clients: int,
           net: NetParams, cache_capacity: int, client_cores: int):
    if kind in ("arkfs", "arkfs-no-pcache", "arkfs-s3", "arkfs-s3-ra400",
                "arkfs-cold", "arkfs-tier"):
        params = DEFAULT_PARAMS.with_(
            permission_cache=(kind != "arkfs-no-pcache"),
            cache_capacity_bytes=cache_capacity,
        )
        profile = RADOS_PROFILE
        cold_profile = None
        if kind == "arkfs-s3":
            profile = S3_PROFILE
        elif kind == "arkfs-s3-ra400":
            profile = S3_PROFILE
            params = params.with_(max_readahead=400 * MiB,
                                  cache_capacity_bytes=512 * MiB)
        elif kind == "arkfs-cold":
            # The tiering ablation's baseline: every access pays the cold
            # capacity tier's first-byte latency.
            profile = S3_COLD_PROFILE
        elif kind == "arkfs-tier":
            # Hot RADOS-like tier fronting the same cold store (A10).
            profile = RADOS_PROFILE
            cold_profile = S3_COLD_PROFILE
            params = params.with_(tier_enabled=True)
        faults = None
        if BENCH_OBS.fault_mode == "transient":
            from ..faults import FaultPlan

            faults = FaultPlan()
            faults.transient_every = BENCH_OBS.transient_every
        cluster = build_arkfs(sim, n_clients=n_clients, params=params,
                              store_profile=profile, net_params=net,
                              client_cores=client_cores, faults=faults,
                              cold_profile=cold_profile)
        return cluster, cluster.mounts

    if kind in ("cephfs-k", "cephfs-k16", "cephfs-f"):
        mds = CEPH_MDS if kind != "cephfs-k16" else replace(CEPH_MDS, n_mds=16)
        mount = "fuse" if kind == "cephfs-f" else "kernel"
        client_params = CephClientParams(cache_capacity=cache_capacity)
        if kind == "cephfs-f":
            # ceph-fuse: 128 KiB default max read-ahead (Section IV-B).
            client_params = replace(client_params, max_readahead=128 * KiB)
        cluster = build_cephfs(sim, n_clients=n_clients, mds_params=mds,
                               client_params=client_params, mount=mount,
                               store_profile=RADOS_PROFILE, net_params=net,
                               client_cores=client_cores)
        return cluster, cluster.mounts

    if kind == "marfs":
        cluster = build_marfs(sim, n_clients=n_clients,
                              store_profile=RADOS_PROFILE, net_params=net,
                              client_cores=client_cores)
        return cluster, cluster.mounts

    if kind == "s3fs":
        cluster = build_s3fs(sim, n_clients=n_clients,
                             store_profile=S3_PROFILE, net_params=net,
                             client_cores=client_cores)
        return cluster, cluster.mounts

    if kind == "goofys":
        cluster = build_goofys(sim, n_clients=n_clients,
                               store_profile=S3_PROFILE, net_params=net,
                               client_cores=client_cores)
        return cluster, cluster.mounts

    raise ValueError(f"unknown file system kind {kind!r}")
