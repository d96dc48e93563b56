"""Benchmark configuration.

Each benchmark regenerates one of the paper's figures/tables in *simulated*
time and prints the reproduced rows next to the paper's claims. They run
under pytest-benchmark (``pytest benchmarks/ --benchmark-only``); the
benchmark clock then measures the wall time of the reproduction itself,
while the printed tables carry the simulated results that correspond to the
paper's numbers.

Set ``REPRO_SCALE=small`` for a quick pass (used in CI).
"""

import json
import os

import pytest

from repro.bench import BENCH_OBS, DEFAULT, SMALL


def pytest_configure(config):
    config.addinivalue_line("markers",
                            "figure(name): maps a benchmark to a paper figure")


@pytest.fixture(scope="session")
def scale():
    return SMALL if os.environ.get("REPRO_SCALE") == "small" else DEFAULT


#: Max points kept per sampled series in BENCH_*.json (full-resolution
#: series stay available in-process; the JSON carries a sketch).
_MAX_SERIES_POINTS = 64


def _compact_series(snapshot):
    for series in snapshot.get("series", {}).values():
        n = len(series["t"])
        if n > _MAX_SERIES_POINTS:
            step = -(-n // _MAX_SERIES_POINTS)  # ceil
            series["t"] = series["t"][::step]
            series["v"] = series["v"][::step]
        series["n_samples"] = n
    return snapshot


def _obs_header():
    """The observability header recorded in every BENCH_*.json: what
    tracing/sampling was active, so walls from different configurations
    are never compared blind."""
    return {
        "sample_rate": 1.0 if BENCH_OBS.tracing else BENCH_OBS.sample_rate,
        "tracing": BENCH_OBS.tracing,
        "slowlog": BENCH_OBS.slowlog,
        "recorder": BENCH_OBS.recorder,
    }


#: Dump of the most recent drained run, for the on-failure artifact hook.
_LAST_OBS_DUMP = None


def _drain_metrics(benchmark):
    """Attach every built cluster's metrics snapshot to the benchmark's
    ``extra_info`` — pytest-benchmark writes it into BENCH_*.json."""
    global _LAST_OBS_DUMP
    benchmark.extra_info["obs"] = _obs_header()
    metrics = []
    failure_dump = []
    for kind, obs in BENCH_OBS.collected:
        snap = _compact_series(obs.metrics.to_dict())
        try:
            # Strict round-trip: a NaN/Infinity would render BENCH_*.json
            # non-standard JSON; drop the offending snapshot loudly instead.
            json.dumps(snap, allow_nan=False)
        except ValueError as exc:
            snap = {"error": f"non-finite metric value dropped: {exc}"}
        entry = {"kind": kind, "metrics": snap}
        if obs.slowlog is not None and obs.slowlog.n_slow:
            entry["slowlog"] = obs.slowlog.to_dict(max_entries=5)
        if obs.recorder is not None:
            entry["recorder"] = {"recorded": obs.recorder.recorded,
                                 "dropped": obs.recorder.dropped}
            failure_dump.append({"kind": kind,
                                 "flight": obs.recorder.to_dict()})
        metrics.append(entry)
    if metrics:
        benchmark.extra_info["metrics"] = metrics
    _LAST_OBS_DUMP = failure_dump or None


@pytest.fixture
def bench_once(benchmark):
    """Run a deterministic experiment exactly once under pytest-benchmark."""

    def run(fn, *args, **kwargs):
        BENCH_OBS.reset()
        try:
            return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                      iterations=1, rounds=1, warmup_rounds=0)
        finally:
            _drain_metrics(benchmark)
            BENCH_OBS.reset()

    return run


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On benchmark failure, drop the flight-recorder rings of the last
    drained run next to the working directory so CI can upload them."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed or not _LAST_OBS_DUMP:
        return
    path = f"obs_failure_{item.name}.json"
    try:
        with open(path, "w") as f:
            f.write(json.dumps({"test": item.nodeid,
                                "dumps": _LAST_OBS_DUMP}, allow_nan=False))
    except (OSError, ValueError):
        pass  # best-effort diagnostics; never mask the real failure
