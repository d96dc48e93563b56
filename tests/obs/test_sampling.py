"""Sampled tracing: determinism, bit-identity, and the per-process tracer.

The contract under test (DESIGN.md §7): a deterministic hash of the
sequential root-op id decides which ops trace; a sampled op's processes
carry the tracer and record its root and primitive spans, unsampled ops
allocate none; and simulated results are bit-identical with sampling on,
off, or at any rate.
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
from repro.posix import ROOT_CREDS, OpenFlags, SyncFS
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
    fs.truncate("/d/f0", 1000)
    out.append(fs.read_file("/d/f0"))
    out.append(tuple(sorted(fs.readdir("/d"))))
    return out


#: Layer-span categories (``LAYER_SPANS``): a full trace records them, a
#: sampled op only its root and primitive spans.
LAYER_CATS = ("store", "cache", "journal", "prt", "rpc")


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
        # Each sampled root got primitive children, so attribution works;
        # nothing else is recorded.
        child_cats = {s.cat for s in obs.tracer.spans if s.parent is not None}
        assert child_cats & set(PRIMITIVE_CATS)
        assert child_cats <= set(PRIMITIVE_CATS)

    def test_full_tracing_adds_layer_spans(self, obs_off):
        _sim, sampled, _ = _run(obs_off, 0.05)
        _sim, full, _ = _run(obs_off, 1.0)
        ob = full._op_observer
        assert ob.n_sampled == ob.n_root > 0
        cats = [{s.cat for s in obs.tracer.spans} for obs in (sampled, full)]
        assert cats[1] - cats[0] == set(LAYER_CATS)

    def test_tracer_context_local_outside_sampled_ops(self, obs_off):
        sim = Simulator()
        obs = Observability.of(sim)
        obs.enable_tracing(pid_name="arkfs", sample_rate=0.05)
        _cluster, mounts = build("arkfs", sim, n_clients=1, net=NET_50G)
        seen = []

        def ops():
            # Op 0 always samples; at 5 % the next three do not.
            for i in range(4):
                yield from mounts[0].mkdir(ROOT_CREDS, f"/d{i}")
                seen.append(sim._active_proc.tracer)

        sim.run_process(ops())
        assert obs._op_observer.n_sampled == 1
        # The sampled op gave its process the tracer only for its duration,
        # and top-level processes start untraced.
        assert seen == [None] * 4
        assert sim.tracer is None
        # Every span belongs to the sampled op: nothing outside it traced.
        roots = [s for s in obs.tracer.spans if s.cat == trace_mod.ROOT_CAT]
        assert [r.name for r in roots] == ["vfs.mkdir"]
        for s in obs.tracer.spans:
            while s.parent is not None:
                s = s.parent
            assert s is roots[0]

    def test_background_work_roots_at_the_op_that_spawned_it(self, obs_off):
        """fsync's checkpoint runs on after the op returns: spans it first
        opens then still root at that fsync's root span, not nowhere."""
        sim = Simulator()
        _cluster, mounts = build("arkfs", sim, n_clients=1, net=NET_50G)
        m = mounts[0]
        obs = Observability.of(sim)
        obs.enable_tracing(pid_name="arkfs", sample_rate=1.0)

        def loop():
            for i in range(4):
                h = yield from m.open(ROOT_CREDS, f"/f{i}",
                                      OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
                yield from m.write(h, b"x" * 4096)
                yield from m.fsync(h)
                yield from m.close(h)

        sim.run_process(loop())
        sim.run(until=sim.now + 3)   # the background checkpoints drain
        unrooted = []
        for s in obs.tracer.spans:
            root = s
            while root.parent is not None:
                root = root.parent
            if root.cat != trace_mod.ROOT_CAT:
                unrooted.append(s.name)
        assert obs.tracer.spans and unrooted == []

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
        assert sim.tracer is tr
        assert obs._op_observer.threshold == 1 << 32      # every op
        assert obs.sample_rate == 1.0
