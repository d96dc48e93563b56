"""Sampled tracing: determinism, bit-identity, and the context-local tracer.

The contract under test (DESIGN.md §7): a deterministic hash of the
sequential root-op id decides which ops trace; sampled ops get full spans
while unsampled ops allocate none; and simulated results are bit-identical
with sampling on, off, or at any rate.
"""

import pytest

from repro.bench.harness import BENCH_OBS, NET_50G, build
from repro.obs import (
    PRIMITIVE_CATS,
    Observability,
    is_sampled,
    sample_threshold,
)
from repro.obs import trace as trace_mod
from repro.posix import ROOT_CREDS, SyncFS
from repro.sim import Simulator

MiB = 1024 * 1024


@pytest.fixture
def obs_off(monkeypatch):
    """Pin the harness's always-on tier to a known configuration."""
    monkeypatch.setattr(BENCH_OBS, "tracing", False)
    monkeypatch.setattr(BENCH_OBS, "sample_rate", 0.0)
    monkeypatch.setattr(BENCH_OBS, "slowlog", False)
    monkeypatch.setattr(BENCH_OBS, "recorder", False)
    return monkeypatch


def _workload(fs):
    fs.mkdir("/d")
    for i in range(8):
        fs.write_file(f"/d/f{i}", bytes([i]) * (256 * 1024), do_fsync=True)
    out = []
    for i in range(8):
        out.append(fs.read_file(f"/d/f{i}"))
    out.append(tuple(sorted(fs.readdir("/d"))))
    return out


def _run(obs_off, rate, slowlog=False, recorder=False):
    sim = Simulator()
    obs = Observability.of(sim)
    if rate:
        obs.enable_tracing(pid_name="arkfs", sample_rate=rate)
    if slowlog:
        obs.enable_slowlog()
    if recorder:
        obs.enable_recorder()
    _cluster, mounts = build("arkfs", sim, n_clients=1, net=NET_50G)
    result = _workload(SyncFS(mounts[0], ROOT_CREDS))
    return sim, obs, result


class TestSamplingHash:
    def test_deterministic_and_monotone_in_rate(self):
        t_lo, t_hi = sample_threshold(0.01), sample_threshold(0.25)
        assert t_lo < t_hi <= sample_threshold(1.0) == 1 << 32
        picked_lo = {i for i in range(10_000) if is_sampled(i, t_lo)}
        picked_hi = {i for i in range(10_000) if is_sampled(i, t_hi)}
        # Same decision on a second evaluation, and raising the rate only
        # ever adds ops to the sampled set.
        assert picked_lo == {i for i in range(10_000) if is_sampled(i, t_lo)}
        assert picked_lo <= picked_hi

    def test_rate_hits_expected_fraction(self):
        t = sample_threshold(0.01)
        n = sum(1 for i in range(100_000) if is_sampled(i, t))
        # The multiplicative hash is low-discrepancy: the realized rate
        # sits tight around 1%.
        assert 800 <= n <= 1200

    def test_op_zero_always_sampled(self):
        assert is_sampled(0, sample_threshold(1e-9))
        assert not is_sampled(0, sample_threshold(0.0))


class TestSampledRuns:
    def test_bit_identical_results_across_rates(self, obs_off):
        base = None
        for rate, slowlog, recorder in [(0.0, False, False),
                                        (0.05, True, True),
                                        (1.0, False, False)]:
            _sim, _obs, result = _run(obs_off, rate, slowlog, recorder)
            if base is None:
                base = result
            else:
                assert result == base, f"rate={rate} changed sim results"

    def test_sampled_fraction_exact_and_exported(self, obs_off):
        sim, obs, _ = _run(obs_off, 0.05, slowlog=True)
        ob = obs._op_observer
        assert ob.n_root > 0
        assert 1 <= ob.n_sampled < ob.n_root
        assert ob.n_sampled == ob.expected_sampled()
        roots = [s for s in obs.tracer.spans
                 if s.cat == trace_mod.ROOT_CAT and s.args
                 and "op" in s.args]
        assert len(roots) == ob.n_sampled
        # Each sampled root got primitive children, so attribution works.
        child_cats = {s.cat for s in obs.tracer.spans if s.parent is not None}
        assert child_cats & set(PRIMITIVE_CATS)

    def test_tracer_context_local_outside_sampled_ops(self, obs_off):
        sim, obs, _ = _run(obs_off, 0.05)
        # After the run the main context must be untraced again.
        assert sim._tracer is None
        assert sim._sample_tracer is obs.tracer

    def test_zero_span_allocations_when_rate_zero(self, obs_off, monkeypatch):
        calls = []
        orig = trace_mod.Span.__init__

        def spy(self, *args, **kwargs):
            calls.append(self)
            orig(self, *args, **kwargs)

        monkeypatch.setattr(trace_mod.Span, "__init__", spy)
        # Slowlog + recorder on, sampling off: the observer runs but must
        # not allocate a single span.
        _sim, obs, _ = _run(obs_off, 0.0, slowlog=True, recorder=True)
        assert calls == []
        assert obs._op_observer.n_root > 0
        assert obs._op_observer.n_sampled == 0

    def test_full_tracer_not_downgraded_by_sampled_enable(self, obs_off):
        sim = Simulator()
        obs = Observability.of(sim)
        tr = obs.enable_tracing(pid_name="full")          # full tracing
        assert obs.enable_tracing(sample_rate=0.01) is tr  # no downgrade
        assert sim._tracer is tr
        assert obs.sample_rate == 1.0
