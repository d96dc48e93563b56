"""Composition smoke: optional subsystems enabled together.

ROADMAP item 1(a) in its cheapest form. The two optional subsystems,
``shards`` and ``tier``, together run one short mixed script on a fenced
ring of two lease managers; the final namespace and
file bytes must equal the all-off run's, a strict ``fsck`` must be clean and
the fencing auditor must have seen no stale-epoch commit. A combination that
fails is recorded as ``xfail(strict=True)`` with its reproduction under
ROADMAP item 1 — found here, fixed elsewhere.
"""

import pytest

from repro.core import build_arkfs
from repro.core.fsck import fsck
from repro.core.params import DEFAULT_PARAMS, KiB
from repro.core.sharded_client import ShardedClient
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator

# Small enough thresholds that the script crosses each subsystem's
# interesting boundary: one split, hot-tier demotions.
FLAGS = {
    "shards": dict(shards_enabled=True, shard_split_threshold=8,
                   shard_fanout=4),
    "tier": dict(tier_enabled=True, tier_hot_capacity=192 * KiB,
                 tier_high_watermark=0.75, tier_low_watermark=0.5,
                 tier_dirty_max=128 * KiB, tier_drain_interval=0.4,
                 tier_drain_batch=4, tier_promote_max=64 * KiB),
}

ROWS = [tuple(FLAGS)]


def _blob(i: int, size: int) -> bytes:
    return bytes([65 + i]) * size


def run_script(flags) -> dict:
    """Run the script with ``flags`` on; return ``{path: bytes | None}``
    (``None`` marks a directory) as a second client sees it afterwards."""
    params = DEFAULT_PARAMS
    for name in flags:
        params = params.with_(**FLAGS[name])
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True, params=params,
                          n_lease_managers=2)
    fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
    fs1 = SyncFS(cluster.client(1), ROOT_CREDS)

    fs0.mkdir("/a")
    fs1.mkdir("/b")
    for i, size in enumerate((40 * KiB, 100 * KiB, 9 * KiB, 70 * KiB)):
        fs0.write_file(f"/a/f{i}", _blob(i, size), do_fsync=i % 2 == 0)
    fs1.write_file("/b/g", _blob(4, 30 * KiB), do_fsync=True)
    fs0.rename("/a/f1", "/b/moved")             # cross-directory: 2PC
    fs0.unlink("/a/f2")
    assert fs1.readdir("/a") == ["f0", "f3"]
    for i in range(10):                         # crosses the split threshold
        fs1.write_file(f"/a/burst{i}", _blob(5 + i, 2 * KiB + i))
    assert any(c._shard_maps for c in cluster.clients
               if isinstance(c, ShardedClient)) == ("shards" in flags)
    fs0.write_file("/a/f0", _blob(15, 50 * KiB), do_fsync=True)  # overwrite
    for c in cluster.clients:
        sim.run_process(c.sync())
    sim.run(until=sim.now + 3)                  # checkpoints, drains

    seen = {}

    def walk(path):
        for name in fs1.readdir(path):
            sub = path.rstrip("/") + "/" + name
            if fs1.stat(sub).is_dir:
                seen[sub] = None
                walk(sub)
            else:
                seen[sub] = fs1.read_file(sub)
    walk("/")
    for c in cluster.clients:
        sim.run_process(c.sync())
    sim.run(until=sim.now + 3)
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.errors
    assert cluster.lease_service.fencing.breaches == []
    return seen


@pytest.fixture(scope="module")
def reference():
    return run_script(())


def test_reference_run_is_what_the_script_says(reference):
    assert sorted(p for p, v in reference.items() if v is None) == ["/a", "/b"]
    assert reference["/b/moved"] == _blob(1, 100 * KiB)
    assert reference["/a/f0"] == _blob(15, 50 * KiB)
    assert "/a/f2" not in reference and "/a/burst9" in reference


@pytest.mark.parametrize("flags", ROWS, ids="+".join)
def test_flags_together_match_the_all_off_run(flags, reference):
    assert run_script(flags) == reference
