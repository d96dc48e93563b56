#!/usr/bin/env python3
"""CI's ledger budgets, one table. Run with no arguments where the
ledger-smoke job's ``run.py ... > BENCH_ledger_*.json`` lines are: prints
one line per budget, and exits non-zero if a value is over its bound or
missing. A budget only goes down: tightening one edits its row."""

import json
import sys
from pathlib import Path

# (result file, metric, bound, decimals printed, what going over means)
BUDGETS = [
    ("BENCH_ledger_tier_aged_layers.json", "obs.host_share", 0.10, 4,
     "a resource sampler costs by cluster size, not activity"),
    ("BENCH_ledger_tier_aged_e2e.json", "host_pycalls_per_op", 245.5, 2,
     "a hand-rolled wait or a generator-stack OSD request in the store path"),
    ("BENCH_ledger_tier_aged_e2e.json", "sim_readback_s", 1.10, 4,
     "a cold read waits for a cache slot that another reader's GET holds"),
    ("BENCH_ledger_tier_aged_e2e.json", "sim_mutate_s", 0.49, 4,
     "staged writes wait for a drain that starts late or runs lock-step"),
    ("BENCH_ledger_md_private_e2e.json", "host_pycalls_per_op", 260.8, 1,
     "a second resume or forwarding frame per hold on the root-op path"),
    ("BENCH_ledger_md_shared_e2e.json", "sim_op_p99_us", 1190, 2,
     "eviction writes back dirty entries behind a clean head"),
    ("BENCH_ledger_md_scale_e2e.json", "host_pycalls_per_op", 281.0, 2,
     "a second object per queued hold on the OSD backlog"),
    ("BENCH_ledger_md_scale_e2e.json", "host_peak_mb", 65, 1,
     "a second object per queued hold on the OSD backlog"),
    ("BENCH_ledger_md_scale_e2e.json", "sim_op_p99_us", 1400, 2,
     "a first touch loads its directory in more than one read round"),
    ("BENCH_ledger_seq_io_e2e.json", "host_pycalls_per_op", 63.9, 2,
     "a per-piece Python loop on the data path"),
    ("BENCH_ledger_seq_io_e2e.json", "host_peak_mb", 225, 1,
     "a second resident copy of the data, or entries joined at fsync"),
    ("BENCH_ledger_archive_e2e.json", "host_peak_mb", 80, 1,
     "a heavy import back on the dataset draw or the tar path"),
    ("BENCH_ledger_archive_e2e.json", "sim_mutate_s", 0.108, 5,
     "lock-step writeback rounds, or mkdirs that wait for a checkpoint"),
    ("BENCH_ledger_archive_e2e.json", "sim_op_p99_us", 2100, 2,
     "a mkdir waits for its parent's whole checkpoint"),
]


def check(directory="."):
    """One report line per budget, and whether every value is within."""
    lines = []
    for name, metric, bound, decimals, reason in BUDGETS:
        workload = name[len("BENCH_ledger_"):].rsplit("_", 1)[0]
        try:
            last = Path(directory, name).read_text().strip().splitlines()[-1]
            value = json.loads(last)["metrics"][metric]["value"]
        except (OSError, ValueError, IndexError, KeyError, TypeError) as e:
            lines.append(f"FAIL {workload} {metric}: no value ({e!r})")
            continue
        lines.append(f"{'FAIL' if value > bound else 'ok'} {workload} "
                     f"{metric} = {value:.{decimals}f} (budget {bound})"
                     + (f": {reason}" if value > bound else ""))
    return lines, not any(line.startswith("FAIL") for line in lines)


if __name__ == "__main__":
    report, within = check()
    print("\n".join(report))
    sys.exit(not within)
