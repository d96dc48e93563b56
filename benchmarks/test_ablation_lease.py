"""Ablation A4 — lease period vs re-acquisition overhead (Section III-B).

The 5 s default lease means a leader working in bursts usually extends
instead of reloading its metatable. Very short leases force reloads
between bursts: one read round each (inode GET beside the dentry LIST,
then the dentry batch and one batch of child inodes).
"""

import pytest

from repro.core import DEFAULT_PARAMS, build_arkfs
from repro.posix import OpenFlags, ROOT_CREDS
from repro.sim import Simulator
from repro.workloads import run_phase


def _bursty_creates(lease_period, n_bursts=6, burst=25, think=0.6):
    """One client creating in bursts with idle gaps; returns active time
    (total minus the fixed think time)."""
    sim = Simulator()
    params = DEFAULT_PARAMS.with_(lease_period=lease_period,
                                  lease_renew_margin=lease_period / 5)
    cluster = build_arkfs(sim, n_clients=2, params=params)
    mount = cluster.mounts[0]

    def worker():
        yield from mount.mkdir(ROOT_CREDS, "/work")
        for b in range(n_bursts):
            for i in range(burst):
                h = yield from mount.open(
                    ROOT_CREDS, f"/work/f{b}.{i}",
                    OpenFlags.O_CREAT | OpenFlags.O_EXCL | OpenFlags.O_WRONLY)
                yield from mount.close(h)
            yield sim.timeout(think)

    t0 = sim.now
    run_phase(sim, [sim.process(worker())])
    return (sim.now - t0) - n_bursts * think


@pytest.mark.figure("ablation-A4")
def test_short_leases_force_metatable_reloads(bench_once):
    def run():
        return {period: _bursty_creates(period)
                for period in (0.2, 1.0, 5.0)}

    times = bench_once(run)
    print("\nA4 lease period sweep (active seconds for bursty creates):")
    for period, t in sorted(times.items()):
        print(f"  {period:>4.1f} s lease: {t * 1000:8.1f} ms active")
    # A 0.2 s lease expires during every 0.6 s think pause: each burst
    # re-acquires and reloads a growing metatable. 5 s leases never lapse.
    assert times[0.2] > times[5.0] * 1.5
    assert times[1.0] >= times[5.0] * 0.9
