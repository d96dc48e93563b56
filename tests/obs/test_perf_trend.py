"""scripts/perf_trend.py: extraction, gating filters, baseline check."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "scripts", "perf_trend.py")


@pytest.fixture(scope="module")
def trend():
    spec = importlib.util.spec_from_file_location("perf_trend", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bench_json(path, name="test_x", extra_info=None, mean=1.5):
    doc = {"benchmarks": [{
        "name": name,
        "stats": {"mean": mean},
        "extra_info": extra_info or {},
    }]}
    path.write_text(json.dumps(doc))
    return str(path)


EXTRA = {
    "workload": "fio",
    "write_mbps": 812.5,
    "wall_s": 3.2,
    "obs": {"sample_rate": 0.01, "tracing": False},
    "metrics": [
        {"kind": "arkfs", "metrics": {"counters": {
            "journal.commits": 17,
            "cache.flushes": 4,
            "client0.journal.commits": 9,
            "ceph-client7.cache.flushes": 2,
            "obs.root_ops": 2069,
        }}},
    ],
}


def _with_counters(tmp_path, fname, counters):
    """EXTRA with its arkfs metric counters replaced."""
    info = dict(EXTRA)
    info["metrics"] = [{"kind": "arkfs", "metrics": {"counters": counters}}]
    return _bench_json(tmp_path / fname, extra_info=info)


class TestExtract:
    def test_flattens_scalars_and_metric_counters(self, trend, tmp_path):
        out = trend.extract(_bench_json(tmp_path / "b.json",
                                        extra_info=dict(EXTRA)))
        b = out["test_x"]
        assert b["wall_s"] == 1.5
        assert b["obs"] == {"sample_rate": 0.01, "tracing": False}
        s = b["scalars"]
        assert s["write_mbps"] == 812.5
        assert s["metrics.arkfs.journal.commits"] == 17
        assert s["metrics.arkfs.client0.journal.commits"] == 9
        assert "obs" not in s  # header popped, not flattened


class TestGating:
    def test_gated_keeps_counters_drops_nondet_and_per_instance(self, trend):
        scalars = {
            "metrics.arkfs.journal.commits": 17,
            "metrics.arkfs.cache.flushes": 4,
            "metrics.arkfs.obs.root_ops": 2069,
            "metrics.arkfs.client0.journal.commits": 9,
            "metrics.marfs.ceph-client7.cache.flushes": 2,
            "write_mbps": 812.5,      # not a gated pattern
            "wall_s": 3.2,            # nondeterministic
            "speedup": 4.4,           # nondeterministic
        }
        gated = trend._gated(scalars)
        assert gated == {
            "metrics.arkfs.journal.commits": 17,
            "metrics.arkfs.cache.flushes": 4,
            "metrics.arkfs.obs.root_ops": 2069,
        }


class TestCheck:
    def test_update_then_check_roundtrip(self, trend, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        base = str(tmp_path / "baseline.json")
        assert trend.update([res], base) == 0
        doc = json.loads(open(base).read())
        assert doc["scale"] == "small"
        exact = doc["benchmarks"]["test_x"]["exact"]
        assert "metrics.arkfs.journal.commits" in exact
        assert not any("client0" in k for k in exact)
        assert trend.check([res], base, strict_wall=True) == 0

    def test_counter_mismatch_fails(self, trend, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        base = str(tmp_path / "baseline.json")
        trend.update([res], base)
        res2 = _with_counters(tmp_path, "b2.json", {"journal.commits": 18})
        assert trend.check([res2], base, strict_wall=False) == 1

    def test_pinned_key_missing_from_results_fails(self, trend, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        base = str(tmp_path / "baseline.json")
        trend.update([res], base)
        counters = dict(EXTRA["metrics"][0]["metrics"]["counters"])
        del counters["cache.flushes"]
        res2 = _with_counters(tmp_path, "b2.json", counters)
        assert trend.check([res2], base, strict_wall=False) == 1
        assert ("metrics.arkfs.cache.flushes = None, baseline 4"
                in capsys.readouterr().err)

    def test_gated_key_missing_from_baseline_fails(self, trend, tmp_path,
                                                   monkeypatch, capsys):
        """A deterministic counter that matches a gated pattern but is new
        in the results must not pass unpinned."""
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        base = str(tmp_path / "baseline.json")
        trend.update([res], base)
        counters = dict(EXTRA["metrics"][0]["metrics"]["counters"])
        counters["pack.seals"] = 3          # gated pattern, not in baseline
        counters["client3.pack.seals"] = 1  # per-instance: never gated
        counters["something.else"] = 5      # not a gated pattern
        res2 = _with_counters(tmp_path, "b2.json", counters)
        assert trend.check([res2], base, strict_wall=False) == 1
        err = capsys.readouterr().err
        assert "metrics.arkfs.pack.seals = 3, gated key not in baseline" in err
        assert "client3" not in err and "something.else" not in err
        # ...and only for benchmarks the baseline knows: an unknown
        # benchmark's gated keys are not a failure.
        other = _bench_json(tmp_path / "o.json", name="test_other",
                            extra_info=dict(EXTRA))
        assert trend.check([other], base, strict_wall=False) == 0
        # Re-recording the baseline pins the new key.
        trend.update([res2], base)
        assert trend.check([res2], base, strict_wall=False) == 0

    def test_scale_mismatch_skips_exact_gates(self, trend, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA))
        base = str(tmp_path / "baseline.json")
        trend.update([res], base)
        monkeypatch.setenv("REPRO_SCALE", "default")
        res2 = _with_counters(tmp_path, "b2.json", {"journal.commits": 999})
        assert trend.check([res2], base, strict_wall=False) == 0

    def test_wall_drift_advisory_unless_strict(self, trend, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        res = _bench_json(tmp_path / "b.json", extra_info=dict(EXTRA),
                          mean=1.0)
        base = str(tmp_path / "baseline.json")
        trend.update([res], base)
        res2 = _bench_json(tmp_path / "b2.json", extra_info=dict(EXTRA),
                           mean=3.0)  # 3x the reference wall
        assert trend.check([res2], base, strict_wall=False) == 0
        assert trend.check([res2], base, strict_wall=True) == 1

