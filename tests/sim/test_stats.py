"""PhaseRecorder accounting."""

import pytest

from repro.sim import PhaseRecorder, Simulator


def test_phase_recorder_basic():
    sim = Simulator()
    rec = PhaseRecorder(sim)
    rec.begin("CREATE")
    sim.run(until=2.0)
    rec.count(100)
    r = rec.end()
    assert r.name == "CREATE"
    assert r.elapsed == 2.0
    assert r.ops_per_sec == 50.0
    assert rec.phase("CREATE") is r
    assert rec.phase("missing") is None


def test_phase_recorder_bandwidth():
    sim = Simulator()
    rec = PhaseRecorder(sim)
    rec.begin("WRITE")
    sim.run(until=1.0)
    rec.count(1, nbytes=50_000_000)
    r = rec.end()
    assert r.bandwidth_mbps == pytest.approx(50.0)


def test_zero_elapsed_phase_is_finite():
    # A phase that opens and closes at the same sim time must report 0.0
    # rates (not inf/nan) so BENCH_*.json stays strict-JSON serializable.
    import json

    sim = Simulator()
    rec = PhaseRecorder(sim)
    rec.begin("EMPTY")
    rec.count(5, nbytes=1000)
    r = rec.end()
    assert r.elapsed == 0.0
    assert r.ops_per_sec == 0.0
    assert r.bandwidth_mbps == 0.0
    json.dumps({"ops_per_sec": r.ops_per_sec,
                "bandwidth_mbps": r.bandwidth_mbps}, allow_nan=False)


def test_phase_recorder_errors():
    sim = Simulator()
    rec = PhaseRecorder(sim)
    rec.begin("READ")
    rec.error(3)
    r = rec.end()
    assert r.errors == 3


def test_nested_phase_rejected():
    sim = Simulator()
    rec = PhaseRecorder(sim)
    rec.begin("a")
    with pytest.raises(RuntimeError):
        rec.begin("b")
