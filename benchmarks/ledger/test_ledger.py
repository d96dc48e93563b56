"""Smoke test for the performance ledger (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Runs the cheapest workload once through ``run.py`` and once in-process, and
checks the contract between ``BENCHMARK.json`` and what the benchmark
prints — not the numbers themselves.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import spans
import worker
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHEAPEST = "seq_io"


def _listing(directory: Path) -> set:
    return {p.relative_to(directory).as_posix()
            for p in directory.rglob("*")
            if "__pycache__" not in p.parts and ".pytest_cache" not in p.parts}


def test_spec_declares_the_workloads_the_benchmark_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/ledger"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_ledger_run_carries_exactly_the_declared_metrics(tmp_path):
    before = _listing(HERE)
    out = tmp_path / "BENCH_ledger.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", CHEAPEST,
         "--seconds", "0", "--out", str(out)],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout[-2000:]
    assert _listing(tmp_path) == {out.name}    # nothing but --out
    assert _listing(HERE) == before

    ledger = json.loads(out.read_text())
    assert ledger["problems"] == []
    (run,) = ledger["sets"]
    assert list(run) == [CHEAPEST]
    for mode, declared in (("untraced", SPEC["end_to_end"]),
                           ("traced", SPEC["per_layer"])):
        result = run[CHEAPEST][mode]
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in declared}
        assert all(math.isfinite(v) for v in result["metrics"].values())
    assert run[CHEAPEST]["traced"]["spans"]
    for m in SPEC["end_to_end"]:
        assert f"{m['name']:<46}" in done.stdout    # printed by name


def test_driver_form_prints_one_result_object(tmp_path):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", CHEAPEST,
             "--seed", "5", "--seconds", "0", "--trace", str(trace)],
            cwd=tmp_path, stdout=subprocess.PIPE, text=True)
        assert done.returncode == 0
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert _listing(tmp_path) == set()


def test_wrappers_are_removed_and_do_not_perturb_the_simulation():
    workload = WORKLOADS[CHEAPEST]
    plain = worker.repetition(workload, seed=2, check=True)
    traced = worker.repetition(workload, seed=2, traced=True)
    assert plain.rep.oracle.failed == 0
    assert traced.facts == plain.facts
    assert traced.log.spans
    cluster = traced.rep.cluster
    wrapped = (list(traced.rep.raw_mounts) + list(cluster.clients)
               + [c.cache for c in cluster.clients]
               + [c.journal for c in cluster.clients]
               + list(cluster.net.nodes.values())
               + [cluster.net, cluster.store])
    names = set(spans.CLIENT_OPS + spans.CACHE_OPS + spans.JOURNAL_OPS
                + spans.STORE_VERBS + ("call", "send"))
    assert not any(names & set(vars(obj)) for obj in wrapped)
