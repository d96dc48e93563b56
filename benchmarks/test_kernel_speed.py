"""Kernel record on the fig6a data path: event counts and obs overhead.

Two benchmarks drive the fig6a arkfs leg with the Simulator in hand:

* the scheduler's *deterministic* counters (run-loop events, inline
  resumes, heap pushes) are pinned exactly — any change to what the
  kernel schedules, or to how much of it resumes inline, moves them;
* the always-on observability tier is run on vs. off and must leave the
  simulated results bit-identical; its wall-clock ratio is printed, not
  asserted — the enforced budget is the ledger's ``obs.host_share`` in CI
  ``ledger-smoke`` (a best-of-3 wall ratio read 0.84-1.04 on one host, and
  a cheaper kernel only makes the tier's fixed cost a larger share).

Host cost of the scheduler itself (``host_us_per_op``,
``host_pycalls_per_op``, ``sim.engine.host_share``) is the performance
ledger's job (``benchmarks/ledger``), per workload, not this file's.
"""

import gc
import time

from repro.bench import SMALL
from repro.bench.harness import BENCH_OBS, NET_50G, build
from repro.obs import ROOT_CAT, chrome_trace_events
from repro.sim import Simulator
from repro.sim.stats import kernel_counters
from repro.workloads import fio_seq

#: The fig6a arkfs leg always runs at SMALL, so its kernel counts are
#: exact at every ``REPRO_SCALE``.
KERNEL_COUNTS = {"loop_events": 9465, "inline_events": 4367,
                 "heap_pushes": 7625}


def _fig6a_arkfs():
    """The fig6a arkfs leg with the Simulator in hand, so the kernel
    counters are readable afterwards."""
    sim = Simulator()
    _cluster, mounts = build("arkfs", sim, n_clients=SMALL.fio_nodes,
                             net=NET_50G,
                             cache_capacity=max(96 * 1024 * 1024,
                                                SMALL.fio_file // 2))
    t0 = time.perf_counter()
    result = fio_seq(sim, mounts, n_procs=SMALL.fio_procs,
                     file_size=SMALL.fio_file, block_size=SMALL.fio_block)
    wall = time.perf_counter() - t0
    return ((result.write_mbps, result.read_mbps), kernel_counters(sim),
            wall)


def test_fig6a_kernel_event_counts():
    """The scheduler's event counts on the fig6a arkfs workload are
    exactly reproducible: a real share of events resumes inline, only
    strictly-future events reach the heap, and every count is pinned."""
    _mbps, counters, _wall = _fig6a_arkfs()
    total = counters["loop_events"] + counters["inline_events"]
    print(f"\nfig6a arkfs: {counters['loop_events']} loop events, "
          f"{counters['inline_events']} inline "
          f"({counters['inline_events'] / total:.0%}), "
          f"{counters['heap_pushes']} heap pushes")
    assert counters["inline_events"] > 0
    assert counters["heap_pushes"] < total
    assert counters == KERNEL_COUNTS


def _set_obs(monkeypatch, on: bool) -> None:
    monkeypatch.setattr(BENCH_OBS, "tracing", False)
    monkeypatch.setattr(BENCH_OBS, "sample_rate", 0.01 if on else 0.0)
    monkeypatch.setattr(BENCH_OBS, "slowlog", on)
    monkeypatch.setattr(BENCH_OBS, "recorder", on)


def test_observability_overhead_and_sampling(monkeypatch):
    """The always-on tier (1% sampled tracing + slowlog + recorder) must
    keep simulated results bit-identical and actually export the
    deterministically sampled fraction of root-op spans; its wall-clock
    cost against the untraced run is printed."""
    # Full data path: fig6a arkfs, tier on vs. fully off. The configs
    # alternate within each trial so host-speed drift (thermal, cache,
    # competing load) hits both equally; best-of-3 per config. Cyclic GC
    # is quiesced and paused around each timed run: collection cost scales
    # with whatever unrelated live heap earlier tests left behind, which
    # otherwise amplifies the tier's small allocation rate into an
    # arbitrary wall-clock penalty.
    walls = {True: None, False: None}
    mbps = {}
    obs = None
    for _ in range(3):
        for on in (True, False):
            _set_obs(monkeypatch, on)
            BENCH_OBS.reset()
            gc.collect()
            gc_was = gc.isenabled()
            gc.disable()
            try:
                r, _counters, w = _fig6a_arkfs()
            finally:
                if gc_was:
                    gc.enable()
            if on and obs is None:
                obs = BENCH_OBS.collected[-1][1]
            BENCH_OBS.reset()
            assert mbps.setdefault(on, r) == r
            if walls[on] is None or w < walls[on]:
                walls[on] = w

    fig6a_ratio = walls[False] / walls[True]  # >1: the tier-on run was faster
    print(f"\nobs overhead: fig6a {fig6a_ratio:.3f}x of untraced "
          f"(walls {walls[True]:.2f}s vs {walls[False]:.2f}s)")

    # Bit-identity: sampling/slowlog/recorder never touch simulated time.
    assert mbps[True] == mbps[False]

    # The sampled-span contract: exactly the hash-chosen fraction of root
    # ops traced, and each traced op exported a root span.
    ob = obs._op_observer
    assert ob.n_root > 0
    assert ob.n_sampled == ob.expected_sampled()
    assert ob.n_sampled >= 1
    root_events = [e for e in chrome_trace_events([obs.tracer])
                   if e["ph"] == "X" and e["cat"] == ROOT_CAT
                   and e["args"].get("op") is not None]
    assert len(root_events) == ob.n_sampled
