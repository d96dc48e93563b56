#!/usr/bin/env python
"""Perf-trend gate: flag benchmark regressions against a committed baseline.

A baseline registry over every benchmark JSON the CI produces —
fig4/fig6/table2 walls and their deterministic simulation counters, the
kernel event counts, mdtest.

Usage::

    python scripts/perf_trend.py check  BENCH_*.json [--baseline PATH]
    python scripts/perf_trend.py update BENCH_*.json [--baseline PATH]

``check`` extracts each benchmark's wall clock, its ``extra_info``
scalars, and its deterministic simulation counters, and compares them
against the committed baseline in ``benchmarks/perf_baseline.json``. Two
classes of comparison:

* **exact** — deterministic quantities (simulated-event counts, journal
  commits, sampled-op counts...). The simulation is seeded and
  deterministic, so these must match bit-for-bit at the recorded scale;
  any difference is a real behavior change and fails the check, in
  either direction: a pinned key missing from the results, or a gated
  key in the results that the baseline does not pin yet.
* **wall** — wall-clock references are advisory: hosts differ, so drift
  beyond ``wall_tolerance`` prints a warning but does not fail unless
  ``--strict-wall`` is given.

Benchmarks in the baseline but absent from the given results files are
skipped (each CI job checks only the files it produced).

``update`` rewrites the baseline from the given results; commit the diff
alongside whatever change justified it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO, "benchmarks", "perf_baseline.json")

#: Deterministic-counter keys worth gating, as regexes over the flattened
#: key space (see :func:`extract`); only these are pinned exactly in the
#: baseline.
GATED_PATTERNS = [
    r"^kernel\.(loop_events|heap_pushes|inline_events)$",
    r"\.journal\.commits$",
    r"\.cache\.flushes$",
    r"\.pack\.seals$",
    r"\.obs\.root_ops$",
    r"\.obs\.sampled_ops$",
    r"\.faults\.transient$",
    r"\.tier\.(hits|promotions|demotions)$",
    r"\.qos\.(admitted|busy|throttle_ops|throttle_bytes)$",
]
_GATED = [re.compile(p) for p in GATED_PATTERNS]

#: extra_info keys that are wall-clock-derived and must never be treated
#: as deterministic.
_NONDET = re.compile(
    r"(wall|ops_per_sec|speedup|ratio|pre_pr|_s$|seconds)", re.I)

#: Per-instance scopes (one metric namespace per simulated client/server)
#: are excluded from gating: a 4096-client run would pin thousands of
#: near-identical keys, bloating the baseline without adding signal. The
#: whole-sim aggregates remain gated.
_PER_INSTANCE = re.compile(r"\.[\w-]*(client|server|mds|oss)\d+\.")


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        out[prefix] = obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)


def extract(results_path: str) -> dict:
    """``{benchmark name: {"wall_s", "scalars", "obs"}}`` from one
    pytest-benchmark JSON file."""
    with open(results_path) as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        info = dict(bench.get("extra_info", {}))
        obs = info.pop("obs", None)
        metrics = info.pop("metrics", [])
        scalars: dict = {}
        _flatten("", info, scalars)
        for entry in metrics:
            kind = entry.get("kind", "?")
            counters = entry.get("metrics", {}).get("counters", {})
            for cname, v in counters.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    scalars[f"metrics.{kind}.{cname}"] = v
        out[bench["name"]] = {
            "wall_s": bench.get("stats", {}).get("mean"),
            "scalars": scalars,
            "obs": obs,
        }
    return out


def extract_all(results_paths) -> dict:
    merged = {}
    for path in results_paths:
        merged.update(extract(path))
    return merged


def _gated(scalars: dict) -> dict:
    return {k: v for k, v in sorted(scalars.items())
            if not _NONDET.search(k) and not _PER_INSTANCE.search(k)
            and any(p.search(k) for p in _GATED)}


def check(results_paths, baseline_path: str, strict_wall: bool) -> int:
    with open(baseline_path) as f:
        baseline = json.load(f)
    tolerance = float(baseline.get("wall_tolerance", 0.5))
    scale = os.environ.get("REPRO_SCALE", "default")
    if baseline.get("scale") not in (None, scale):
        print(f"note: baseline recorded at scale={baseline.get('scale')!r} "
              f"but this run is scale={scale!r}; exact gates skipped")
        return 0
    benches = extract_all(results_paths)
    failures, warnings = [], []
    checked = 0
    for name, entry in baseline.get("benchmarks", {}).items():
        got = benches.get(name)
        if got is None:
            print(f"{name}: not in results, skipped")
            continue
        checked += 1
        exact = entry.get("exact", {})
        for key, want in exact.items():
            have = got["scalars"].get(key)
            if have != want:
                failures.append(f"{name}: {key} = {have!r}, baseline {want!r}")
            else:
                print(f"{name}: {key} = {have} ok")
        for key, have in _gated(got["scalars"]).items():
            if key not in exact:
                failures.append(f"{name}: {key} = {have!r}, gated key not "
                                f"in baseline — run update")
        ref = entry.get("wall_s_reference")
        wall = got["wall_s"]
        if ref and wall:
            drift = wall / ref - 1.0
            flag = abs(drift) > tolerance
            print(f"{name}: wall {wall:.2f}s vs reference {ref:.2f}s "
                  f"({drift:+.0%}){' DRIFT' if flag else ''}")
            if flag:
                warnings.append(
                    f"{name}: wall {wall:.2f}s drifted {drift:+.0%} from "
                    f"reference {ref:.2f}s (tolerance ±{tolerance:.0%})")
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    if failures:
        print("\nperf trend FAILED (deterministic counters):",
              file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    if strict_wall and warnings:
        print("\nperf trend FAILED (--strict-wall)", file=sys.stderr)
        return 1
    print(f"perf trend ok ({checked} benchmark(s) checked)")
    return 0


def update(results_paths, baseline_path: str) -> int:
    benches = extract_all(results_paths)
    if os.path.exists(baseline_path):
        with open(baseline_path) as f:
            baseline = json.load(f)
    else:
        baseline = {
            "_comment": [
                "Committed perf-trend baseline for scripts/perf_trend.py.",
                "'exact' pins deterministic simulation counters (seeded",
                "runs reproduce them bit-for-bit at the recorded scale);",
                "wall_s_reference values are advisory wall clocks from the",
                "machine that last ran --update, flagged past",
                "wall_tolerance but never gated unless --strict-wall.",
            ],
            "wall_tolerance": 0.5,
            "benchmarks": {},
        }
    baseline["scale"] = os.environ.get("REPRO_SCALE", "default")
    for name, got in sorted(benches.items()):
        entry = baseline["benchmarks"].setdefault(name, {})
        exact = _gated(got["scalars"])
        if exact:
            entry["exact"] = exact
        if got["wall_s"]:
            entry["wall_s_reference"] = round(got["wall_s"], 3)
        print(f"{name}: {len(exact)} exact key(s), "
              f"wall {got['wall_s'] or 0:.2f}s")
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"wrote {baseline_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "update"))
    parser.add_argument("results", nargs="+",
                        help="pytest-benchmark JSON file(s)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--strict-wall", action="store_true",
                        help="fail check on wall-clock drift too")
    args = parser.parse_args(argv)
    if args.mode == "update":
        return update(args.results, args.baseline)
    return check(args.results, args.baseline, args.strict_wall)


if __name__ == "__main__":
    sys.exit(main())
