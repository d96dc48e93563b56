#!/usr/bin/env python3
"""The performance ledger: one command, two clocks, six workloads.

    python3 benchmarks/ledger/run.py [--workload W] [--seed N] [--sets K]
                                     [--seconds S] [--out BENCH_ledger.json]

runs every workload (or one) twice per set — an untraced child process for
the end-to-end metrics, then a traced one for the per-layer metrics — checks
every output, and prints every metric by name with its unit. ``--sets 2``
repeats the whole protocol and prints how well the two sets agree against
the bounds in ``BENCHMARK.json``.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

is the form the benchmark driver uses: one child, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics for ``--trace 0``, per-layer
metrics for ``--trace 1``).

Children run one at a time with ``PYTHONHASHSEED=0`` and glibc malloc told
to keep freed memory, so hash order is fixed and repetitions after the
first do not page-fault their buffers in again. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Where the quartiles of the samples behind a host metric live in a child's
#: ``host`` section (for the spread column of the agreement table).
SPREAD_SOURCE = {"host_us_per_op": "run_ref_s", "setup_s": "setup_ref_s"}


class ChildFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_child(workload: str, seed: int, seconds: float, trace: int,
              spans: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # Keep freed blocks in the heap: without this every large ``bytes``
    # buffer is mmapped and page-faulted afresh in every repetition.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(16 << 30)
    src = str(ROOT / "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise ChildFailed(f"no program to measure: {src}/repro is missing")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spans", str(int(spans))]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ChildFailed(f"{workload}: worker exited {done.returncode} "
                          f"without a result")
    return json.loads(lines[-1])


def contract_line(result: dict, declared: List[dict]) -> str:
    """The driver's result object: exactly the declared metrics."""
    metrics = {}
    for m in declared:
        value = result["metrics"][m["name"]]
        if not math.isfinite(value):
            raise ChildFailed(f"metric {m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": metrics})


def print_metrics(title: str, result: dict, declared: List[dict]) -> None:
    print(f"  {title}")
    for m in declared:
        print(f"    {m['name']:<46} {result['metrics'][m['name']]:>16.6g} "
              f"{m['unit']}")


def print_workload(name: str, pair: dict, spec: dict) -> None:
    plain, traced = pair["untraced"], pair["traced"]
    print(f"\n== {name}  (seed {plain['seed']}, {plain['attempted']} root "
          f"ops attempted, {plain['failed']} failed, "
          f"failed_op_share {plain['failed_op_share']:g}) ==")
    print_metrics("end to end (untraced run)", plain, spec["end_to_end"])
    print("  phases (simulated; the paper's axes)")
    for phase, row in plain["facts"]["phases"].items():
        for key, unit in (("sim_ops_per_s", "1/s"), ("sim_mb_per_s", "MB/s"),
                          ("cache_hit_ratio", "ratio")):
            print(f"    phase.{phase + '.' + key:<40} {row[key]:>16.6g} {unit}")
    print_metrics("per layer (traced run)", traced, spec["per_layer"])
    for result in (plain, traced):
        for problem in result["problems"] + result["failures"]:
            print(f"  !! {result['mode']}: {problem}")


def cross_check(name: str, pair: dict) -> List[str]:
    """The traced child must reproduce the untraced child's simulation,
    and its per-layer shares must account for everything."""
    problems = []
    if pair["untraced"]["facts"] != pair["traced"]["facts"]:
        problems.append(f"{name}: traced run's simulated facts differ from "
                        f"the untraced run's")
    metrics = pair["traced"]["metrics"]
    host = sum(v for k, v in metrics.items() if k.endswith(".host_share"))
    sim = sum(v for k, v in metrics.items()
              if k.endswith((".sim_self_share", ".sim_wait_share",
                             ".sim_share", ".unattributed_share")))
    if abs(host - 1.0) > 0.01:
        problems.append(f"{name}: host shares sum to {host:.4f}")
    if abs(sim - 1.0) > 0.01 or abs(metrics["sim.unattributed_share"]) > 0.01:
        problems.append(
            f"{name}: simulated shares sum to {sim:.4f}, unattributed "
            f"{metrics['sim.unattributed_share']:.4f}")
    return problems


def agreement(sets: List[dict], spec: dict) -> List[dict]:
    """Set 1 against each later set, per workload x end-to-end metric."""
    rows = []
    for later in sets[1:]:
        for name, first in sets[0].items():
            a, b = first["untraced"], later[name]["untraced"]
            for m in spec["end_to_end"]:
                key, bound = m["name"], m["bound"]
                va, vb = a["metrics"][key], b["metrics"][key]
                diff = abs(vb - va) / abs(va)
                spread = 0.0
                if key in SPREAD_SOURCE:
                    # How far a median of n samples wanders: IQR / sqrt(n).
                    spread = max(
                        (q["q3"] - q["q1"]) / q["median"] / math.sqrt(q["n"])
                        for q in (r["host"][SPREAD_SOURCE[key]]
                                  for r in (a, b)))
                # Simulated metrics and the call count must repeat exactly.
                if (key in a["facts"]["end_to_end"]
                        or key == "host_pycalls_per_op"):
                    status = "ok" if va == vb else "DIFFERS"
                elif spread > bound:
                    status = "unresolved"
                else:
                    status = "ok" if diff <= bound else "DISAGREES"
                rows.append({"workload": name, "metric": key, "first": va,
                             "second": vb, "rel_diff": diff,
                             "spread": spread, "bound": bound,
                             "status": status})
            if a["facts"] != b["facts"]:
                rows.append({"workload": name, "metric": "(all facts)",
                             "first": 0.0, "second": 0.0, "rel_diff": 0.0,
                             "spread": 0.0, "bound": 0.0,
                             "status": "DIFFERS"})
    return rows


def print_agreement(rows: List[dict]) -> None:
    print("\n== agreement between sets ==")
    print(f"  {'workload':<11} {'metric':<24} {'first':>14} {'second':>14} "
          f"{'diff':>8} {'spread':>8} {'bound':>7}  status")
    for r in rows:
        print(f"  {r['workload']:<11} {r['metric']:<24} {r['first']:>14.6g} "
              f"{r['second']:>14.6g} {r['rel_diff']:>8.2%} "
              f"{r['spread']:>8.2%} {r['bound']:>7.2%}  {r['status']}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measuring time per child process")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: one child, result JSON last")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="write the full ledger JSON here")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_child(args.workload, args.seed, args.seconds, args.trace)
        for problem in result["problems"] + result["failures"]:
            print(f"!! {problem}", file=sys.stderr)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        print(contract_line(result, declared))
        return 0 if result["correct"] else 1

    selected = [args.workload] if args.workload else names
    sets: List[Dict[str, dict]] = []
    problems: List[str] = []
    for index in range(args.sets):
        ledger: Dict[str, dict] = {}
        for name in selected:
            pair = {"untraced": run_child(name, args.seed, args.seconds, 0),
                    "traced": run_child(name, args.seed, args.seconds, 1,
                                        spans=args.out is not None)}
            print_workload(name, pair, spec)
            problems += cross_check(name, pair)
            problems += [f"{name}: {r['mode']} run is not correct"
                         for r in pair.values() if not r["correct"]]
            ledger[name] = pair
        sets.append(ledger)
    rows = agreement(sets, spec)
    if rows:
        print_agreement(rows)
        problems += [f"{r['workload']} {r['metric']}: {r['status']}"
                     for r in rows if r["status"] not in ("ok", "unresolved")]
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"schema": "arkfs-ledger/1", "seed": args.seed,
                       "seconds": args.seconds, "sets": sets,
                       "agreement": rows, "problems": problems}, f)
    for problem in problems:
        print(f"!! {problem}")
    print(f"\nledger: {'FAILED' if problems else 'ok'} "
          f"({len(selected)} workloads x {args.sets} sets, seed {args.seed})")
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        sys.exit(2)
