"""Command-line figure regeneration: ``python -m repro.bench [targets...]``.

Targets: fig1 fig4 fig5 fig6a fig6b fig7 table2 io500 tier
(default: all). ``--tier`` is shorthand for adding the ``tier`` target —
the A10 hot/cold tiering ablation (aged-read latency, hit rate, cold GET
savings).
Pass ``--small`` for the reduced scale. Pass ``--trace out.json`` to record
cross-layer spans for every simulated cluster the run builds: the file is
Chrome trace-event JSON (load it at https://ui.perfetto.dev), and a
per-phase latency-attribution table is printed per file-system kind.

Pass ``--faults transient`` (or set ``REPRO_FAULTS=transient``) to slide a
deterministic fault plan beneath the arkfs builds: every Nth store
operation fails with a retryable error, and the run prints the retry
counters and backoff totals the clients accumulated absorbing them.

Observability defaults to the always-on tier: 1% deterministic sampling,
slow-op log, flight recorder. ``--sample-rate R`` changes the sampling
rate (``--trace`` implies full tracing and wins); ``--slowlog[=PATH]``
prints the slow-op table and optionally dumps it as JSON;
``--flight=PATH`` dumps the flight-recorder ring per kind.

``--help`` lists every flag; an unknown flag or target exits with status 2
before anything is built.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import (
    BENCH_OBS,
    DEFAULT,
    SMALL,
    fig1_mds_scalability,
    fig4_mdtest_easy,
    fig5_mdtest_hard,
    fig6a_fio_rados,
    fig6b_fio_s3,
    fig7_arkfs_scalability,
    format_attribution_merged,
    format_series,
    format_slowlog,
    format_table,
    format_tier_report,
    table2_archiving,
    tier_ablation,
)

TARGETS = ("fig1", "fig4", "fig5", "fig6a", "fig6b", "fig7", "table2",
           "io500", "tier")


def run_target(name: str, scale) -> None:
    t0 = time.time()
    if name == "fig1":
        series = fig1_mds_scalability(scale)
        print(format_series("Fig. 1 — CephFS-K (1 MDS) normalized create "
                            "throughput", {"cephfs-k": series}))
    elif name == "fig4":
        print(format_table("Fig. 4 — mdtest-easy", fig4_mdtest_easy(scale),
                           unit="ops/s", fmt="{:>14.0f}"))
    elif name == "fig5":
        print(format_table("Fig. 5 — mdtest-hard", fig5_mdtest_hard(scale),
                           unit="ops/s", fmt="{:>14.0f}"))
    elif name == "fig6a":
        print(format_table("Fig. 6(a) — fio on RADOS", fig6a_fio_rados(scale),
                           unit="MB/s", fmt="{:>14.0f}"))
    elif name == "fig6b":
        print(format_table("Fig. 6(b) — fio on S3", fig6b_fio_s3(scale),
                           unit="MB/s", fmt="{:>14.0f}"))
    elif name == "fig7":
        print(format_series("Fig. 7 — normalized create throughput",
                            fig7_arkfs_scalability(scale)))
    elif name == "table2":
        print(format_table("Table II — elapsed seconds (simulated)",
                           table2_archiving(scale), unit="s",
                           fmt="{:>14.2f}"))
    elif name == "io500":
        from .io500 import io500_table

        print("IO500-style combined scores")
        print(io500_table(scale=scale))
    elif name == "tier":
        print(format_tier_report(tier_ablation(scale)))
    print(f"[{name}: {time.time() - t0:.1f}s wall]\n")


def format_fault_report(collected) -> str:
    """Summarize fault injections and the retries that absorbed them."""
    lines = ["Fault injection — transient errors and client retries"]
    for kind, obs in collected:
        snap = obs.metrics.to_dict()
        counters = snap["counters"]
        injected = counters.get("faults.transient", 0)
        attempts = counters.get("store.retry.attempts", 0)
        giveups = counters.get("store.retry.giveups", 0)
        if not (injected or attempts):
            continue
        hist = snap["histograms"].get("store.retry.backoff", {})
        lines.append(
            f"  {kind:<16} injected={injected} retries={attempts} "
            f"giveups={giveups} backoff_total={hist.get('sum', 0.0):.4f}s "
            f"backoff_max={hist.get('max', 0.0) * 1e3:.1f}ms")
    if len(lines) == 1:
        lines.append("  (no faults fired)")
    return "\n".join(lines)


class _AddTargets(argparse.Action):
    """Adds targets in command-line order: the positionals, and the
    ``--tier`` shorthand (its ``const``)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if option_string is not None:
            values = [self.const]
        namespace.targets = namespace.targets + list(values)


class _SlowLog(argparse.Action):
    """``--slowlog[=PATH]``; a target name after a bare ``--slowlog`` stays
    a target."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value in TARGETS or value == "all":
            namespace.targets = namespace.targets + [value]
            value = ""
        namespace.slowlog = value


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures and the ablations.")
    parser.add_argument("targets", nargs="*", action=_AddTargets,
                        metavar="target",
                        help=f"any of {' '.join(TARGETS)} (default: all)")
    parser.add_argument("--small", action="store_true",
                        help="run at the reduced scale")
    parser.add_argument("--tier", nargs=0, action=_AddTargets, const="tier",
                        dest="targets", help="add the tier target")
    parser.add_argument("--trace", metavar="PATH",
                        help="full tracing; write Chrome trace JSON here")
    parser.add_argument("--faults", choices=("transient",),
                        default=os.environ.get("REPRO_FAULTS") or None,
                        help="fault plan under the arkfs builds "
                             "(default: $REPRO_FAULTS)")
    parser.add_argument("--sample-rate", type=float, metavar="R",
                        help="sampled-tracing rate in [0, 1]")
    parser.add_argument("--slowlog", nargs="?", const="", action=_SlowLog,
                        metavar="PATH",
                        help="print the slow-op table (--slowlog=PATH also "
                             "dumps it as JSON)")
    parser.add_argument("--flight", metavar="PATH",
                        help="dump the flight-recorder ring per kind")
    parser.set_defaults(targets=[])
    # Targets may follow flags (``fig4 --small fig5``): argparse consumes
    # the positionals before the first flag and leaves the rest over.
    args, rest = parser.parse_known_args(argv)
    flags = [a for a in rest if a.startswith("-")]
    if flags:
        parser.error(f"unrecognized arguments: {' '.join(flags)}")
    args.targets += rest
    if args.faults not in (None, "transient"):
        parser.error(f"unknown fault mode {args.faults!r}")
    unknown = [t for t in args.targets if t not in TARGETS and t != "all"]
    if unknown:
        parser.error(f"unknown target {unknown[0]!r}; pick from {TARGETS}")
    return args


def main(argv) -> None:
    args = parse_args(argv)
    trace_path = args.trace
    fault_mode = args.faults
    scale = SMALL if args.small else DEFAULT
    BENCH_OBS.reset(tracing=trace_path is not None)
    if args.sample_rate is not None:
        BENCH_OBS.sample_rate = args.sample_rate
    BENCH_OBS.fault_mode = fault_mode
    if trace_path is not None:
        print("[--trace: full tracing allocates a span per instrumented "
              "step; wall-clock times are NOT comparable to untraced runs]")
    targets = args.targets or ["all"]
    if "all" in targets:
        targets = list(TARGETS)
    try:
        for name in targets:
            run_target(name, scale)
        if fault_mode is not None:
            print(format_fault_report(BENCH_OBS.collected))
    finally:
        BENCH_OBS.fault_mode = None
    if trace_path is not None:
        from ..obs import write_chrome_trace

        n = write_chrome_trace(trace_path, BENCH_OBS.tracers(),
                               counters=BENCH_OBS.counter_series())
        attrib = format_attribution_merged(BENCH_OBS.collected)
        if attrib:
            print(attrib)
        print(f"\n[trace: {n} events -> {trace_path}]")
    if args.slowlog is not None:
        print(format_slowlog(BENCH_OBS.collected))
        if args.slowlog:
            import json

            doc = {kind: obs.slowlog.to_dict()
                   for kind, obs in BENCH_OBS.collected
                   if obs.slowlog is not None}
            with open(args.slowlog, "w") as f:
                f.write(json.dumps(doc, allow_nan=False))
            print(f"[slowlog -> {args.slowlog}]")
    if args.flight is not None:
        import json

        doc = {kind: obs.recorder.to_dict()
               for kind, obs in BENCH_OBS.collected
               if obs.recorder is not None}
        with open(args.flight, "w") as f:
            f.write(json.dumps(doc, allow_nan=False))
        print(f"[flight recorder -> {args.flight}]")


if __name__ == "__main__":
    main(sys.argv[1:])
