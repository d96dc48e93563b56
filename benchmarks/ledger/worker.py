"""One workload, one process: the ledger's measurement protocol.

``run.py`` launches this module as a child process (``PYTHONHASHSEED=0``,
one at a time, one thread) so that ``ru_maxrss`` is per workload and hash
order is pinned. Two protocols:

* **untraced** — what the end-to-end metrics come from. Repetition 0 runs
  under ``cProfile`` (warm-up, and the exact Python call count); then
  plain repetitions, each bracketed by the calibration kernel, until
  ``--seconds`` have passed (at least :data:`MIN_REPS`). Host values are
  medians over the timed repetitions, in reference-host seconds.
* **traced** — pairs of (plain, span-wrapped) repetitions for half that
  time, then one ``cProfile`` repetition bucketed by source package.

Every repetition rebuilds the cluster from the same seed, so its simulated
facts (times, percentiles, store traffic, every counter) must be *equal*
to those of repetition 0; any difference fails the run.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro
from repro.bench.harness import BENCH_OBS
from repro.obs import Observability
from repro.sim.stats import kernel_counters

import calib
import spans as spanlib
from workloads import WORKLOADS, Rep, Workload

MIN_REPS = 3
#: ``setup_s`` is short, so it is sampled more often than whole
#: repetitions are: extra build + prep rounds run until this many exist.
SETUP_SAMPLES = 9
EXTRA_SETUP_S = 1.5     # ... or this much wall time has gone into them

LAYERS = ("sim.engine", "sim.resources", "sim.network", "objectstore",
          "core.lease", "core.journal", "core.cache", "core.client",
          "posix", "obs", "driver")

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep
_SIM_MODULES = {"resources.py": "sim.resources", "network.py": "sim.network"}
_CORE_MODULES = {"lease.py": "core.lease", "journal.py": "core.journal",
                 "cache.py": "core.cache"}


# -- public counters ----------------------------------------------------------

def _backends(store) -> list:
    """The cluster stores that actually serve requests (both tiers)."""
    return [store.hot, store.cold] if hasattr(store, "hot") else [store]


def counters(rep: Rep) -> Dict[str, float]:
    """Snapshot of the counters the layers already expose publicly."""
    cluster, sim = rep.cluster, rep.sim
    out: Dict[str, float] = dict(kernel_counters(sim))
    out["net_msgs"] = cluster.net.messages_sent
    out["net_bytes"] = cluster.net.bytes_sent
    for key, value in cluster.lease_manager.stats.items():
        out["lease_" + key] = value
    cache_stats = [c.cache.stats for c in cluster.clients]
    for key in ("hits", "misses", "prefetches", "evictions"):
        out["cache_" + key] = sum(stats[key] for stats in cache_stats)
    out["journal_commits"] = sum(c.journal.commits for c in cluster.clients)
    backends = _backends(cluster.store)
    out["store_requests"] = sum(sum(b.backing.op_counts.values())
                                for b in backends)
    out["store_bytes"] = sum(b.bytes_read + b.bytes_written
                             for b in backends)
    tier = cluster.store.stats if hasattr(cluster.store, "hot") else {}
    for key in ("hits", "misses", "promotions", "demotions",
                "drained_bytes"):
        out["tier_" + key] = tier.get(key, 0)
    registry = Observability.of(sim).metrics
    for name in ("obs.root_ops", "obs.sampled_ops", "store.retry.attempts"):
        metric = registry.get(name)
        out[name] = metric.value if metric is not None else 0
    return out


def _mean_util(rep: Rep, suffix: str, lo: float, hi: float) -> List[float]:
    """Mean of each sampled ``*<suffix>`` utilisation series over [lo, hi]."""
    means = []
    for name, series in Observability.of(rep.sim).metrics.items():
        if name.endswith(suffix):
            window = [v for t, v in zip(series.times, series.values)
                      if lo <= t <= hi]
            if window:
                means.append(sum(window) / len(window))
    return means


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sim_facts(rep: Rep, before: Dict[str, float],
              after: Dict[str, float]) -> dict:
    """Everything about a repetition that must repeat exactly."""
    oracle, phases = rep.oracle, rep.phases
    ops = len(oracle.latencies)
    lat = sorted(oracle.latencies)
    d = {k: after[k] - before[k] for k in after}
    lo, hi = phases[0].start, phases[-1].end
    written = sum(p.user_bytes for p in phases if p.mutating)
    events = d["loop_events"] + d["inline_events"]
    fetched = d["cache_prefetches"] + d["cache_misses"]
    lease_rpcs = sum(d["lease_" + k] for k in
                     ("acquire", "extend", "redirect", "release", "wait"))
    return {
        "ops": ops,
        "files": oracle.files,
        "user_bytes": oracle.user_bytes,
        "latency_sum_s": sum(oracle.latencies),
        "window": [lo, hi],
        "end_to_end": {
            "sim_makespan_s": hi - lo,
            "sim_mutate_s": sum(p.end - p.start for p in phases
                                if p.mutating),
            "sim_readback_s": sum(p.end - p.start for p in phases
                                  if not p.mutating),
            "sim_op_p50_us": _percentile(lat, 0.50) * 1e6,
            "sim_op_p99_us": _percentile(lat, 0.99) * 1e6,
            "store_requests_per_op": d["store_requests"] / ops,
            "store_bytes_per_op": d["store_bytes"] / ops,
        },
        "phases": {
            p.name: {
                "sim_s": p.end - p.start,
                "ops": p.ops,
                "user_bytes": p.user_bytes,
                "sim_ops_per_s": _ratio(p.ops, p.end - p.start),
                "sim_mb_per_s": _ratio(p.user_bytes / 1e6, p.end - p.start),
                "cache_hit_ratio": _ratio(p.cache_hits,
                                          p.cache_hits + p.cache_misses),
            } for p in phases},
        "events": events,
        "counts": {
            "sim.engine.events_per_op": events / ops,
            "sim.engine.heap_pushes_per_op": d["heap_pushes"] / ops,
            "sim.engine.inline_ratio": _ratio(d["inline_events"], events),
            "sim.network.msgs_per_op": d["net_msgs"] / ops,
            "sim.network.bytes_per_op": d["net_bytes"] / ops,
            "core.lease.mgr_rpcs_per_op": lease_rpcs / ops,
            "core.lease.waits_per_op": d["lease_wait"] / ops,
            "core.lease.redirects_per_op": d["lease_redirect"] / ops,
            "core.lease.mgr_cpu_util": max(
                _mean_util(rep, "lease-mgr.cpu.util", lo, hi), default=0.0),
            "core.journal.flushes_per_op": d["journal_commits"] / ops,
            "core.cache.hit_ratio": _ratio(
                d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
            "core.cache.evictions_per_op": d["cache_evictions"] / ops,
            "core.cache.prefetch_share": _ratio(d["cache_prefetches"],
                                                fetched),
            "objectstore.osd_util_max": max(
                _mean_util(rep, ".q.util", lo, hi), default=0.0),
            "objectstore.tier_hit_ratio": _ratio(
                d["tier_hits"], d["tier_hits"] + d["tier_misses"]),
            "objectstore.tier_promotions_per_op": d["tier_promotions"] / ops,
            "objectstore.tier_demotions_per_op": d["tier_demotions"] / ops,
            "objectstore.tier_drain_bytes_per_user_byte": _ratio(
                d["tier_drained_bytes"], written),
            "core.retry.attempts_per_op": d["store.retry.attempts"] / ops,
            "obs.sampled_ops_share": _ratio(d["obs.sampled_ops"],
                                            d["obs.root_ops"]),
        },
    }


# -- one repetition -----------------------------------------------------------

@dataclass
class RepResult:
    rep: Rep
    facts: dict
    setup_cpu: float
    slices_cpu: List[float]      # host time between phase boundaries
    log: Optional[spanlib.SpanLog]


def setup(workload: Workload, seed: int) -> Tuple[Rep, float]:
    """Build + mkfs + untimed prep; returns the rep and its CPU seconds."""
    # The harness keeps every built cluster's registry alive until reset;
    # drop the previous repetition's *before* collecting, or its garbage
    # is collected in the middle of this repetition's timed region.
    BENCH_OBS.reset()
    gc.collect()
    t0 = calib.user_cpu_s()
    rep = Rep(workload, seed)
    workload.prep(rep)
    return rep, calib.user_cpu_s() - t0


def repetition(workload: Workload, seed: int, *, traced: bool = False,
               profile: Optional[cProfile.Profile] = None,
               check: bool = False) -> RepResult:
    rep, setup_cpu = setup(workload, seed)
    log = None
    if traced:
        log = spanlib.SpanLog(rep.sim)
        log.install(rep.cluster, rep.raw_mounts)
    before = counters(rep)
    if profile is not None:
        profile.enable()
    t0 = calib.user_cpu_s()
    try:
        workload.run(rep)
    finally:
        t1 = calib.user_cpu_s()
        if profile is not None:
            profile.disable()
        if log is not None:
            log.remove()
    facts = sim_facts(rep, before, counters(rep))
    if check:
        rep.check()
    marks = [t0] + rep.host_marks + [t1]
    slices_cpu = [b - a for a, b in zip(marks, marks[1:])]
    return RepResult(rep, facts, setup_cpu, slices_cpu, log)


# -- host-time bookkeeping ----------------------------------------------------

class HostClock:
    """Calibration-bracketed repetitions in reference-host seconds."""

    def __init__(self):
        self.calib_s: List[float] = [calib.timed()]
        self.reps: List[dict] = []

    def close(self) -> float:
        """Run the calibration that closes one measurement (and opens the
        next); returns the factor from CPU to reference-host seconds."""
        before = self.calib_s[-1]
        self.calib_s.append(calib.timed())
        return calib.CALIB_REF_S / ((before + self.calib_s[-1]) / 2)

    def record(self, result: RepResult, kind: str) -> dict:
        """Call right after the repetition."""
        scale = self.close()
        row = {
            "kind": kind,
            "setup_cpu_s": result.setup_cpu,
            "run_cpu_s": sum(result.slices_cpu),
            "calib_before_s": self.calib_s[-2],
            "calib_after_s": self.calib_s[-1],
            "setup_ref_s": result.setup_cpu * scale,
            "run_ref_s": sum(result.slices_cpu) * scale,
            "slices_ref_s": [s * scale for s in result.slices_cpu],
        }
        self.reps.append(row)
        return row

    def spread(self) -> float:
        return max(self.calib_s) / min(self.calib_s)


def typical_run_s(rows: List[dict]) -> float:
    """Reference-host seconds of a typical repetition: each slice (a phase,
    or the gap between two) takes its median over the repetitions, and the
    medians add up. A burst of host noise lands in one slice of one
    repetition and is voted out there, where the median of whole
    repetitions would carry it if most repetitions caught some burst."""
    return sum(statistics.median(parts)
               for parts in zip(*(row["slices_ref_s"] for row in rows)))


def _quartiles(values: List[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


# -- cProfile bucketing -------------------------------------------------------

def layer_of_file(path: str) -> Optional[str]:
    """Source file -> layer; None for code outside the repo (stdlib,
    numpy), which is charged to whoever called it."""
    if path.startswith(_SRC):
        package, _, module = path[len(_SRC):].partition(os.sep)
        if package == "sim":
            return _SIM_MODULES.get(module, "sim.engine")
        if package == "core":
            return _CORE_MODULES.get(module, "core.client")
        if package in ("objectstore", "posix", "obs"):
            return package
        return "driver"       # repro.workloads, repro.bench
    if path.startswith(_HERE):
        return "driver"
    return None


def bucket_profile(profile: cProfile.Profile) -> Tuple[int, Dict[str, dict]]:
    """Total Python calls, and per layer ``{"calls", "self_s"}``."""
    stats = pstats.Stats(profile).stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple) -> Dict[str, float]:
        """How ``func``'s cost splits over layers (sums to <= 1): its own
        layer, or for foreign code its callers' split weighted by the time
        (else the calls) on each caller edge."""
        if func in memo:
            return memo[func]
        layer = layer_of_file(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        memo[func] = {}       # a call cycle through foreign code ends here
        callers = stats[func][4]
        column = 2 if any(edge[2] > 0 for edge in callers.values()) else 0
        total = sum(edge[column] for edge in callers.values())
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            for layer, part in shares(caller).items():
                out[layer] = out.get(layer, 0.0) + part * edge[column] / total
        memo[func] = out
        return out

    buckets = {layer: {"calls": 0.0, "self_s": 0.0} for layer in LAYERS}
    total_calls = 0
    for func, (_cc, ncalls, self_s, _ct, _callers) in stats.items():
        total_calls += ncalls
        split = shares(func)
        for layer, part in split.items():
            buckets[layer]["calls"] += ncalls * part
            buckets[layer]["self_s"] += self_s * part
        rest = 1.0 - sum(split.values())   # rootless foreign code
        buckets["driver"]["calls"] += ncalls * rest
        buckets["driver"]["self_s"] += self_s * rest
    return total_calls, buckets


# -- protocols ----------------------------------------------------------------

def _same_facts(reference: dict, other: dict, what: str,
                problems: List[str]) -> None:
    if reference != other:
        diff = [k for k in reference if reference[k] != other.get(k)]
        problems.append(f"{what}: simulated facts differ in {diff}")


def _verdict(workload: Workload, facts: dict, failed: int,
             failures: List[str], problems: List[str]) -> dict:
    pins = {"ops": workload.ops, "files": workload.files,
            "user_bytes": workload.user_bytes}
    seen = {k: facts[k] for k in pins}
    if seen != pins:
        problems.append(f"pins: ran {seen}, pinned {pins}")
    return {
        "attempted": facts["ops"],
        "failed": failed,
        "failed_op_share": failed / facts["ops"],
        "failures": failures,
        "problems": problems,
        "correct": failed == 0 and not problems,
    }


def untraced(workload: Workload, seed: int, seconds: float) -> dict:
    problems: List[str] = []
    profile = cProfile.Profile(builtins=False)
    first = repetition(workload, seed, profile=profile, check=True)
    pycalls, _ = bucket_profile(profile)
    facts = first.facts
    failed, failures = first.rep.oracle.failed, first.rep.oracle.failures
    del profile, first
    clock = HostClock()
    started = time.monotonic()
    timed: List[dict] = []
    while len(timed) < MIN_REPS or time.monotonic() - started < seconds:
        result = repetition(workload, seed)
        timed.append(clock.record(result, "timed"))
        _same_facts(facts, result.facts, f"repetition {len(timed)}", problems)
        failed += result.rep.oracle.failed
        del result
    setups = [row["setup_ref_s"] for row in timed]
    extra_started = time.monotonic()
    while (len(setups) < SETUP_SAMPLES
           and time.monotonic() - extra_started < EXTRA_SETUP_S):
        cpu = setup(workload, seed)[1]
        setups.append(cpu * clock.close())
    ops = facts["ops"]
    run_ref = [row["run_ref_s"] for row in timed]
    metrics = dict(facts["end_to_end"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["host_us_per_op"] = typical_run_s(timed) / ops * 1e6
    metrics["host_pycalls_per_op"] = pycalls / ops
    metrics["host_peak_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return {
        "mode": "untraced",
        "metrics": metrics,
        "facts": facts,
        "host": {
            "run_ref_s": _quartiles(run_ref),
            "setup_ref_s": _quartiles(setups),
            "reps": clock.reps,
            "calib_s": clock.calib_s,
            "calib_spread_x": clock.spread(),
            "pycalls": pycalls,
        },
        **_verdict(workload, facts, failed, failures, problems),
    }


def traced(workload: Workload, seed: int, seconds: float,
           keep_spans: bool) -> dict:
    problems: List[str] = []
    clock = HostClock()
    started = time.monotonic()
    facts = None
    failed, failures = 0, []
    plain_rows: List[dict] = []
    wrapped_rows: List[dict] = []
    log = None
    # Half the untraced child's measuring time: nothing here is gated.
    while facts is None or time.monotonic() - started < seconds / 2:
        plain = repetition(workload, seed, check=facts is None)
        plain_row = clock.record(plain, "plain")
        if facts is None:
            facts = plain.facts
            failures = plain.rep.oracle.failures
        _same_facts(facts, plain.facts, "plain repetition", problems)
        failed += plain.rep.oracle.failed
        del plain
        wrapped = repetition(workload, seed, traced=True)
        wrapped_row = clock.record(wrapped, "traced")
        _same_facts(facts, wrapped.facts, "traced repetition", problems)
        failed += wrapped.rep.oracle.failed
        log = wrapped.log
        del wrapped
        plain_rows.append(plain_row)
        wrapped_rows.append(wrapped_row)
    profile = cProfile.Profile(builtins=False)
    profiled = repetition(workload, seed, profile=profile)
    _same_facts(facts, profiled.facts, "profiled repetition", problems)
    failed += profiled.rep.oracle.failed
    del profiled
    _calls, buckets = bucket_profile(profile)
    ops = facts["ops"]

    metrics = dict(facts["counts"])
    host_total = sum(b["self_s"] for b in buckets.values())
    for layer in LAYERS:
        metrics[layer + ".host_share"] = buckets[layer]["self_s"] / host_total
        metrics[layer + ".pycalls_per_op"] = buckets[layer]["calls"] / ops
    metrics["sim.engine.host_events_per_s"] = (
        facts["events"] / typical_run_s(plain_rows))
    metrics["trace.host_overhead_x"] = (
        typical_run_s(wrapped_rows) / typical_run_s(plain_rows))
    metrics["driver.calib_spread_x"] = clock.spread()
    span_metrics, background_s = _span_metrics(log.spans, facts)
    metrics.update(span_metrics)
    out = {
        "mode": "traced",
        "metrics": metrics,
        "facts": facts,
        "host": {"reps": clock.reps, "calib_s": clock.calib_s,
                 "calib_spread_x": clock.spread()},
        "background_sim_s": background_s,
        "n_spans": len(log.spans),
        **_verdict(workload, facts, failed, failures, problems),
    }
    if keep_spans:
        index = {span: i for i, span in enumerate(log.spans)}
        out["spans"] = [
            [s.name, s.start, s.end,
             index[s.parent] if s.parent is not None else -1]
            for s in log.spans]
    return out


def _span_metrics(spans: list, facts: dict) -> Tuple[Dict[str, float], float]:
    """Simulated self-time shares and span-derived counts."""
    ops = facts["ops"]
    lo, hi = facts["window"]
    by_layer, background_s = spanlib.attribute(spans, (lo, hi))
    sync_s = sum(s.end - s.start for s in spans
                 if s.parent is None and s.name == "client.sync"
                 and lo <= s.start <= hi)
    # The denominator is measured by the load generator, not by the spans:
    # what is left after attribution is a real discrepancy, not a residue.
    foreground = facts["latency_sum_s"] + sync_s

    def share(layer: str) -> float:
        return by_layer.get(layer, 0.0) / foreground

    top_store = [s for s in spans if s.name.startswith("store.")
                 and not (s.parent is not None
                          and s.parent.name.startswith("store."))]
    batches = [s for s in top_store if s.name.endswith("_many")]
    rpcs = [s for s in spans if s.name.startswith("rpc:")]
    metrics = {
        "posix.sim_self_share": share("posix"),
        "core.client.sim_self_share": share("core.client"),
        "core.lease.sim_wait_share": share("core.lease"),
        "core.journal.sim_self_share": share("core.journal"),
        "core.cache.sim_self_share": share("core.cache"),
        "objectstore.sim_share": share("objectstore"),
        "sim.network.sim_share": share("sim.network"),
        "sim.unattributed_share": 1.0 - sum(by_layer.values()) / foreground,
        "core.client.forwarded_rpcs_per_op":
            sum(1 for s in rpcs if s.name == "rpc:arkfs") / ops,
        "sim.network.rpcs_per_op": sum(s.items for s in rpcs) / ops,
        "core.journal.bytes_per_op":
            sum(s.journal_bytes for s in top_store) / ops,
        "objectstore.requests_per_op":
            sum(s.items for s in top_store) / ops,
        "objectstore.bytes_per_op": sum(s.nbytes for s in top_store) / ops,
        "objectstore.batch_items_mean":
            _ratio(sum(s.items for s in batches), len(batches)),
    }
    return metrics, background_s


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=int, choices=(0, 1), default=0,
                        help="include the raw span list in the result")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        parser.error("run with PYTHONHASHSEED=0 (run.py does)")
    workload = WORKLOADS[args.workload]
    gc.collect()
    gc.freeze()
    if args.trace:
        result = traced(workload, args.seed, args.seconds, bool(args.spans))
    else:
        result = untraced(workload, args.seed, args.seconds)
    result.update(workload=workload.name, seed=args.seed)
    json.dump(result, sys.stdout, allow_nan=False)
    sys.stdout.write("\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
