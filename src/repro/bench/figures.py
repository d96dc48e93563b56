"""One entry point per paper figure/table.

Each function builds fresh clusters, runs the corresponding workload at the
given :class:`~repro.bench.harness.Scale`, and returns a plain data
structure (printable via :mod:`repro.bench.report`). These are what the
``benchmarks/`` pytest targets call.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..objectstore import EBS_GP_1GBS, LocalDisk
from ..posix import ROOT_CREDS
from ..sim.engine import Simulator
from ..workloads import (
    archive_from_disk,
    archive_to_disk,
    extract_in_fs,
    fio_seq,
    mdtest_easy,
    mdtest_hard,
    mscoco_like,
    run_phase,
)
from .harness import DEFAULT, NET_10G, NET_50G, Scale, build

__all__ = [
    "fig1_mds_scalability",
    "fig4_mdtest_easy",
    "fig5_mdtest_hard",
    "fig6a_fio_rados",
    "fig6b_fio_s3",
    "fig7_arkfs_scalability",
    "table2_archiving",
]


# -- Fig. 1 / Fig. 7: create-scalability ------------------------------------


def _creation_rate(kind: str, n_clients: int, files_per_client: int) -> float:
    """Aggregate CREATE throughput with one mdtest-easy process per client,
    each in its own directory (the Fig. 1 / Fig. 7 setup)."""
    sim = Simulator()
    _cluster, mounts = build(kind, sim, n_clients=n_clients, net=NET_10G)
    result = mdtest_easy(sim, mounts, n_procs=n_clients,
                         files_per_proc=files_per_client,
                         phases=("CREATE",))
    return result.phases["CREATE"]


def fig1_mds_scalability(scale: Scale = DEFAULT,
                         kind: str = "cephfs-k") -> Dict[int, float]:
    """Fig. 1: CephFS-K (1 MDS) create throughput vs client count,
    normalized to the 1-client rate. The paper's shape: rises slightly,
    then collapses beyond ~4 clients."""
    return fig7_arkfs_scalability(scale, kinds=(kind,))[kind]


def fig7_arkfs_scalability(
    scale: Scale = DEFAULT,
    kinds: Sequence[str] = ("arkfs", "arkfs-no-pcache", "cephfs-k",
                            "cephfs-k16"),
) -> Dict[str, Dict[int, float]]:
    """Fig. 7: normalized create throughput, 1..512 clients, for
    ArkFS-pcache / ArkFS-no-pcache / CephFS-K with 1 and 16 MDSs."""
    out: Dict[str, Dict[int, float]] = {}
    for kind in kinds:
        series = {}
        base = None
        for n in scale.scal_clients:
            rate = _creation_rate(kind, n, scale.scal_files_per_client)
            if base is None:
                base = rate
            series[n] = rate / base
        out[kind] = series
    return out


# -- Fig. 4 / Fig. 5: mdtest ---------------------------------------------------


def fig4_mdtest_easy(
    scale: Scale = DEFAULT,
    kinds: Sequence[str] = ("arkfs", "cephfs-k", "cephfs-k16", "cephfs-f",
                            "marfs"),
) -> Dict[str, Dict[str, float]]:
    """Fig. 4: mdtest-easy CREATE/STAT/DELETE ops/sec per file system."""
    out = {}
    for kind in kinds:
        sim = Simulator()
        _cluster, mounts = build(kind, sim, n_clients=scale.mdtest_nodes,
                                 net=NET_50G)
        result = mdtest_easy(sim, mounts, n_procs=scale.mdtest_procs,
                             files_per_proc=scale.easy_files_per_proc)
        out[kind] = dict(result.phases)
    return out


def fig5_mdtest_hard(
    scale: Scale = DEFAULT,
    kinds: Sequence[str] = ("arkfs", "cephfs-k", "cephfs-k16", "cephfs-f",
                            "marfs"),
) -> Dict[str, Dict[str, float]]:
    """Fig. 5: mdtest-hard WRITE/STAT/READ/DELETE ops/sec. MarFS READ
    errors are reported as rate 0 with an ``READ_errors`` count."""
    out = {}
    for kind in kinds:
        sim = Simulator()
        _cluster, mounts = build(kind, sim, n_clients=scale.mdtest_nodes,
                                 net=NET_50G)
        result = mdtest_hard(sim, mounts, n_procs=scale.mdtest_procs,
                             files_per_proc=scale.hard_files_per_proc,
                             n_dirs=scale.hard_dirs)
        row = dict(result.phases)
        if result.errors.get("READ"):
            row["READ"] = 0.0
            row["READ_errors"] = float(result.errors["READ"])
        out[kind] = row
    return out


# -- Fig. 6: fio bandwidth -------------------------------------------------------


def _fio_run(kind: str, scale: Scale) -> Tuple[float, float]:
    sim = Simulator()
    _cluster, mounts = build(kind, sim, n_clients=scale.fio_nodes,
                             net=NET_50G,
                             cache_capacity=max(96 * 1024 * 1024,
                                                scale.fio_file // 2))
    result = fio_seq(sim, mounts, n_procs=scale.fio_procs,
                     file_size=scale.fio_file, block_size=scale.fio_block)
    return result.write_mbps, result.read_mbps


def fig6a_fio_rados(
    scale: Scale = DEFAULT,
    kinds: Sequence[str] = ("arkfs", "cephfs-k", "cephfs-f"),
) -> Dict[str, Dict[str, float]]:
    """Fig. 6(a): WRITE/READ MB/s on the RADOS backend."""
    out = {}
    for kind in kinds:
        w, r = _fio_run(kind, scale)
        out[kind] = {"WRITE": w, "READ": r}
    return out


def fig6b_fio_s3(
    scale: Scale = DEFAULT,
    kinds: Sequence[str] = ("arkfs-s3", "arkfs-s3-ra400", "s3fs", "goofys"),
) -> Dict[str, Dict[str, float]]:
    """Fig. 6(b): WRITE/READ MB/s on the S3 backend (including the
    read-ahead sweep that explains goofys's READ advantage)."""
    out = {}
    for kind in kinds:
        w, r = _fio_run(kind, scale)
        out[kind] = {"WRITE": w, "READ": r}
    return out


# -- Table II: archiving ------------------------------------------------------------


def table2_archiving(
    scale: Scale = DEFAULT,
    kinds: Sequence[str] = ("cephfs-f", "cephfs-k", "arkfs"),
) -> Dict[str, Dict[str, float]]:
    """Table II: tar archiving/unarchiving elapsed seconds per file system.

    Archiving: each process reads its dataset off a 1 GB/s EBS volume,
    streams a tar into the FS, then extracts it into categorized
    directories. Unarchiving: each process tars its extracted tree back
    onto the EBS volume.
    """
    out = {}
    for kind in kinds:
        sim = Simulator()
        # Table I clients have 64–96 GB of RAM: page caches are not the
        # constraint for these dataset sizes.
        _cluster, mounts = build(kind, sim, n_clients=scale.tar_nodes,
                                 net=NET_50G, cache_capacity=512 * 1024 * 1024)
        # One EBS staging volume per client node, shared by its processes.
        disks = [LocalDisk(sim, EBS_GP_1GBS, name=f"ebs{n}")
                 for n in range(scale.tar_nodes)]
        datasets = [mscoco_like(scale.tar_images_per_proc, seed=p,
                                mean_kb=scale.tar_image_kb)
                    for p in range(scale.tar_procs)]

        def archive_proc(p: int):
            def gen():
                mount = mounts[p % len(mounts)]
                yield from mount.mkdir(ROOT_CREDS, f"/proc{p}")
                yield from archive_from_disk(
                    mount, ROOT_CREDS, disks[p % len(disks)], datasets[p],
                    f"/proc{p}/dataset.tar")
                yield from extract_in_fs(mount, ROOT_CREDS,
                                         f"/proc{p}/dataset.tar",
                                         f"/proc{p}/extracted")
            return gen

        def unarchive_proc(p: int):
            def gen():
                mount = mounts[p % len(mounts)]
                yield from archive_to_disk(mount, ROOT_CREDS,
                                           f"/proc{p}/extracted",
                                           disks[p % len(disks)])
            return gen

        t0 = sim.now
        run_phase(sim, [sim.process(archive_proc(p)())
                        for p in range(scale.tar_procs)])
        archive_time = sim.now - t0
        t1 = sim.now
        run_phase(sim, [sim.process(unarchive_proc(p)())
                        for p in range(scale.tar_procs)])
        unarchive_time = sim.now - t1
        out[kind] = {"Archiving": archive_time, "Unarchiving": unarchive_time}
    return out
