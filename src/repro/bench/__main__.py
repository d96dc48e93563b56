"""Command-line figure regeneration: ``python -m repro.bench [targets...]``.

Targets: fig1 fig4 fig5 fig6a fig6b fig7 table2 io500 tier qos
(default: all). ``--tier`` is shorthand for adding the ``tier`` target —
the A10 hot/cold tiering ablation (aged-read latency, hit rate, cold GET
savings) — and ``--qos`` likewise adds the ``qos`` target, the A11
multi-tenant QoS ablation (slow-tenant isolation, abuser capping).
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
"""

from __future__ import annotations

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
    format_qos_report,
    format_table,
    format_tier_report,
    qos_ablation,
    table2_archiving,
    tier_ablation,
)

TARGETS = ("fig1", "fig4", "fig5", "fig6a", "fig6b", "fig7", "table2",
           "io500", "tier", "qos")


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
    elif name == "qos":
        print(format_qos_report(qos_ablation(scale)))
    else:
        raise SystemExit(f"unknown target {name!r}; pick from {TARGETS}")
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


def main(argv) -> None:
    args = []
    trace_path = None
    sample_rate = None
    slowlog_path = None
    want_slowlog = False
    flight_path = None
    fault_mode = os.environ.get("REPRO_FAULTS") or None
    it = iter(argv)
    for a in it:
        if a == "--trace":
            trace_path = next(it, None)
            if trace_path is None:
                raise SystemExit("--trace requires an output path")
        elif a.startswith("--trace="):
            trace_path = a.split("=", 1)[1]
        elif a == "--faults":
            fault_mode = next(it, None)
            if fault_mode is None:
                raise SystemExit("--faults requires a mode (transient)")
        elif a.startswith("--faults="):
            fault_mode = a.split("=", 1)[1]
        elif a == "--sample-rate" or a.startswith("--sample-rate="):
            raw = a.split("=", 1)[1] if "=" in a else next(it, None)
            try:
                sample_rate = float(raw)
            except (TypeError, ValueError):
                raise SystemExit("--sample-rate needs a float in [0, 1]")
        elif a == "--slowlog":
            want_slowlog = True
        elif a.startswith("--slowlog="):
            want_slowlog = True
            slowlog_path = a.split("=", 1)[1]
        elif a.startswith("--flight="):
            flight_path = a.split("=", 1)[1]
        elif a == "--tier":
            args.append("tier")
        elif a == "--qos":
            args.append("qos")
        elif not a.startswith("-"):
            args.append(a)
    if fault_mode not in (None, "transient"):
        raise SystemExit(f"unknown fault mode {fault_mode!r}")
    scale = SMALL if "--small" in argv else DEFAULT
    BENCH_OBS.reset(tracing=trace_path is not None)
    if sample_rate is not None:
        BENCH_OBS.sample_rate = sample_rate
    BENCH_OBS.fault_mode = fault_mode
    if trace_path is not None:
        print("[--trace: full tracing allocates a span per instrumented "
              "step; wall-clock times are NOT comparable to untraced runs]")
    targets = args or ["all"]
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
    if want_slowlog:
        print(format_slowlog(BENCH_OBS.collected))
        if slowlog_path is not None:
            import json

            doc = {kind: obs.slowlog.to_dict()
                   for kind, obs in BENCH_OBS.collected
                   if obs.slowlog is not None}
            with open(slowlog_path, "w") as f:
                f.write(json.dumps(doc, allow_nan=False))
            print(f"[slowlog -> {slowlog_path}]")
    if flight_path is not None:
        import json

        doc = {kind: obs.recorder.to_dict()
               for kind, obs in BENCH_OBS.collected
               if obs.recorder is not None}
        with open(flight_path, "w") as f:
            f.write(json.dumps(doc, allow_nan=False))
        print(f"[flight recorder -> {flight_path}]")


if __name__ == "__main__":
    main(sys.argv[1:])
