"""scripts/ledger_budgets.py: CI's ledger budgets, one table, no skips."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "ledger_budgets", ROOT / "scripts" / "ledger_budgets.py")
budgets = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(budgets)
ROWS = budgets.BUDGETS


def _write(directory, scale, over=None):
    """run.py's files (JSON line last): each value ``scale`` × its bound."""
    files = {}
    for i, (name, metric, bound, *_) in enumerate(ROWS):
        value = bound * (1.01 if i == over else scale)
        files.setdefault(name, {})[metric] = {"value": value}
    for name, metrics in files.items():
        (directory / name).write_text(
            "a log line\n" + json.dumps({"metrics": metrics}) + "\n")


def test_values_under_their_bounds_pass(tmp_path):
    _write(tmp_path, 0.9)
    lines, ok = budgets.check(tmp_path)
    assert ok and len(lines) == len(ROWS) == 14
    assert all(line.startswith("ok ") for line in lines)


@pytest.mark.parametrize("over", range(len(ROWS)))
def test_a_value_over_its_bound_fails_and_says_which(tmp_path, over):
    name, metric, bound, decimals, _ = ROWS[over]
    _write(tmp_path, 0.9, over)
    lines, ok = budgets.check(tmp_path)
    (failed,) = [line for line in lines if line.startswith("FAIL")]
    workload = re.fullmatch(r"BENCH_ledger_(\w+)_(e2e|layers)\.json", name)[1]
    assert not ok and f" {workload} {metric} = " in failed
    assert f"{bound * 1.01:.{decimals}f} (budget {bound})" in failed


def test_a_missing_file_or_metric_fails(tmp_path):
    _write(tmp_path, 0.9)
    (tmp_path / ROWS[0][0]).unlink()
    (tmp_path / ROWS[-1][0]).write_text('{"metrics": {}}\n')
    lines, ok = budgets.check(tmp_path)
    assert not ok
    assert lines[0].startswith("FAIL") and lines[-1].startswith("FAIL")


def test_every_result_file_is_one_that_ci_writes():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    written = set(re.findall(r"> (BENCH_ledger_\w+\.json)", ci))
    assert {name for name, *_ in ROWS} <= written
