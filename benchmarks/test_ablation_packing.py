"""Ablation A8 — packed small-file containers (log-structured packing).

The archiving scenario (Table II: 41K images of ~170 KB) is dominated by
per-object request latency on an S3-like backend: one PUT per small file.
With ``pack_enabled`` the writeback path appends sub-threshold chunks
into shared container objects and pays one large PUT per
``pack_target_size`` bytes, so small-file ingest should speed up by well
over 2x while large-file streaming bandwidth (fig6's regime, chunks at
the 2 MB object size) is untouched — large chunks bypass the pack layer
entirely.

The second test exercises the reclaim machinery: deleting most of a
packed population drops containers below the compaction live-ratio
threshold, and the background compactor must restore a clean layout
(no compaction-debt warnings from fsck, dead containers purged).
"""

import pytest

from repro.bench import NET_50G, SMALL
from repro.core import DEFAULT_PARAMS, build_arkfs, fsck
from repro.objectstore.profiles import KiB, MiB, S3_PROFILE
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator
from repro.workloads import run_phase

PACK_PARAMS = dict(
    pack_threshold=256 * KiB,
    pack_target_size=4 * MiB,
    pack_seal_age=1.0,
    pack_compact_live_ratio=0.5,
)

#: Containers the packed ingest seals, summed over both clients, at SMALL
#: (exact: the run is seeded).
INGEST_SEALS = 16


def _ingest(pack: bool, scale, n_clients=2, procs=4):
    """Small-file ingest (no per-file fsync, one final drain), S3 backend
    over the paper's 50 GbE fabric. Each process writes a full Table II
    per-proc dataset, so the run reaches the steady state where cache
    eviction writeback — one PUT per small file without packing — bounds
    throughput, not the one-time metadata ramp."""
    files = scale.tar_images_per_proc
    size = int(scale.tar_image_kb * 1024)
    sim = Simulator()
    params = DEFAULT_PARAMS.with_(pack_enabled=pack, **PACK_PARAMS)
    cluster = build_arkfs(sim, n_clients=n_clients, params=params,
                          store_profile=S3_PROFILE, net_params=NET_50G)

    def setup():
        yield from cluster.client(0).mkdir(ROOT_CREDS, "/ingest")
        for c in range(n_clients):
            yield from cluster.client(c).mkdir(ROOT_CREDS, f"/ingest/c{c}")

    run_phase(sim, [sim.process(setup())])

    def worker(c, p):
        client = cluster.client(c)
        payload = bytes([(c * procs + p) % 251 + 1]) * size
        for i in range(files):
            yield from client.write_file(
                ROOT_CREDS, f"/ingest/c{c}/p{p}-f{i}", payload)

    t0 = sim.now
    run_phase(sim, [sim.process(worker(c, p))
                    for c in range(n_clients) for p in range(procs)])
    run_phase(sim, [sim.process(cluster.client(c).sync())
                    for c in range(n_clients)])
    elapsed = sim.now - t0
    return n_clients * procs * files / elapsed, cluster


@pytest.mark.figure("ablation-A8")
def test_packing_speeds_up_small_file_ingest(bench_once, scale):
    """Acceptance criterion: packed ingest >= 2x unpacked on S3."""

    def run():
        off_rate, _ = _ingest(False, scale)
        on_rate, cluster = _ingest(True, scale)
        # Spot-check integrity on the packed run before tearing it down.
        fs = SyncFS(cluster.client(1), ROOT_CREDS)
        sample = fs.read_file("/ingest/c0/p0-f0")
        stats = {k: sum(c.pack.stats[k] for c in cluster.clients)
                 for k in ("chunks_packed", "bytes_packed", "packs_sealed")}
        return off_rate, on_rate, stats, len(sample)

    off_rate, on_rate, stats, sample_len = bench_once(run)
    speedup = on_rate / off_rate
    print("\nA8 packed small-file containers (S3 backend, creates/s):")
    print(f"  {'packing':>10} {'rate':>12}")
    print(f"  {'off':>10} {off_rate:>12,.0f}")
    print(f"  {'on':>10} {on_rate:>12,.0f}   ({speedup:.1f}x)")
    print(f"  packed {stats['chunks_packed']} chunks "
          f"({stats['bytes_packed'] / MiB:.1f} MiB) into "
          f"{stats['packs_sealed']} containers")

    assert sample_len > 0
    assert stats["chunks_packed"] > 0
    assert stats["packs_sealed"] < stats["chunks_packed"] / 4, \
        "packing must amortize many chunks per container PUT"
    assert speedup >= 2.0, f"packing speedup {speedup:.2f}x < 2x"
    if scale is SMALL:
        assert stats["packs_sealed"] == INGEST_SEALS


@pytest.mark.figure("ablation-A8")
def test_large_file_path_unaffected_by_packing(bench_once, scale):
    """fig6 guard: chunks at the data-object size bypass the pack layer;
    streaming write bandwidth with packing on stays within 2% of off."""

    def _stream(pack: bool):
        sim = Simulator()
        params = DEFAULT_PARAMS.with_(pack_enabled=pack, **PACK_PARAMS)
        cluster = build_arkfs(sim, n_clients=1, params=params,
                              store_profile=S3_PROFILE)
        size = scale.fio_file

        def setup():
            yield from cluster.client(0).mkdir(ROOT_CREDS, "/big")

        run_phase(sim, [sim.process(setup())])
        t0 = sim.now
        payload = b"\x5a" * size

        def worker():
            yield from cluster.client(0).write_file(ROOT_CREDS, "/big/f",
                                                    payload)

        run_phase(sim, [sim.process(worker())])
        run_phase(sim, [sim.process(cluster.client(0).sync())])
        bw = size / (sim.now - t0)
        packed = cluster.client(0).pack.stats["chunks_packed"] if pack else 0
        return bw, packed

    def run():
        return _stream(False), _stream(True)

    (off_bw, _), (on_bw, on_packed) = bench_once(run)
    print(f"\nA8 large-file guard: streaming write {off_bw / MiB:,.0f} "
          f"MiB/s off vs {on_bw / MiB:,.0f} MiB/s on "
          f"({(1 - on_bw / off_bw) * 100:+.2f}% delta)")
    assert on_packed == 0, "large chunks must bypass the pack layer"
    assert on_bw >= off_bw * 0.98, \
        f"packing regressed large-file bandwidth: {off_bw} -> {on_bw}"


@pytest.mark.figure("ablation-A8")
def test_compaction_restores_live_ratio(bench_once):
    """Delete two of every three packed files: containers drop below the
    live-ratio threshold, the compactor rewrites the survivors, and the
    settled layout is clean (no compaction debt, no dead containers)."""

    def run():
        sim = Simulator()
        params = DEFAULT_PARAMS.with_(
            pack_enabled=True, pack_threshold=128 * KiB,
            pack_target_size=512 * KiB, pack_seal_age=0.5,
            pack_compact_live_ratio=0.8)
        cluster = build_arkfs(sim, n_clients=1, params=params,
                              functional=True, seed=0)
        client = cluster.client(0)
        fs = SyncFS(client, ROOT_CREDS)
        fs.mkdir("/a")
        n = 30
        for i in range(n):
            fs.write_file(f"/a/f{i}", bytes([i % 251 + 1]) * 50_000)
        sim.run_process(client.sync())
        sim.run(until=sim.now + 2)
        sealed = client.pack.stats["packs_sealed"]
        for i in range(n):
            if i % 3 != 0:
                fs.unlink(f"/a/f{i}")
        sim.run_process(client.sync())
        sim.run(until=sim.now + 6)
        survivors = {f"/a/f{i}": bytes([i % 251 + 1]) * 50_000
                     for i in range(0, n, 3)}
        sim.run_process(client.drop_caches())
        for path, want in survivors.items():
            assert fs.read_file(path) == want, path
        report = sim.run_process(fsck(cluster.prt, pack_live_warn=0.8))
        return sealed, client.pack.stats, report

    sealed, stats, report = bench_once(run)
    print(f"\nA8 compaction: {sealed} containers sealed, "
          f"{stats['compactions']} compactions moved "
          f"{stats['compacted_bytes'] / KiB:.0f} KiB, reclaimed "
          f"{stats['reclaimed_bytes'] / KiB:.0f} KiB "
          f"({stats['containers_purged']} containers purged)")
    assert stats["compactions"] > 0
    assert stats["reclaimed_bytes"] > 0
    assert report.clean, report.summary()
    # Live ratio restored: even at the strict 0.8 warn threshold the
    # settled layout carries no compaction debt.
    assert not any("live ratio" in w for w in report.warnings), \
        report.summary()
