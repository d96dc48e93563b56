"""A 4096-client mdtest-easy CREATE point — the paper's full client scale.

Fig. 4's x-axis tops out at 4096 clients; before the two-queue scheduler
this point was too slow for CI. It now builds + runs in ~20 s at small
files-per-client, so the bench-smoke budget can afford one full-scale
sample. The simulated creation rate lands in ``BENCH_mdtest4096.json``.
"""

from repro.bench.harness import NET_50G, build
from repro.sim import Simulator
from repro.sim.stats import kernel_counters
from repro.workloads import mdtest_easy

N_CLIENTS = 4096
FILES_PER_PROC = 2


def _mdtest_4096():
    sim = Simulator()
    _cluster, mounts = build("arkfs", sim, n_clients=N_CLIENTS, net=NET_50G)
    result = mdtest_easy(sim, mounts, n_procs=N_CLIENTS,
                         files_per_proc=FILES_PER_PROC, phases=("CREATE",))
    return result, kernel_counters(sim)


def test_mdtest_easy_4096_clients(bench_once, benchmark):
    result, counters = bench_once(_mdtest_4096)
    rate = result.phases["CREATE"]
    benchmark.extra_info["n_clients"] = N_CLIENTS
    benchmark.extra_info["files_per_proc"] = FILES_PER_PROC
    benchmark.extra_info["create_ops_per_sec"] = rate
    benchmark.extra_info["kernel_counters"] = counters
    print(f"\nmdtest-easy CREATE @ {N_CLIENTS} clients: {rate:,.0f} ops/s")
    assert rate > 0
