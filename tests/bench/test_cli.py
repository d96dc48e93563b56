"""The figure CLI parses its flags: an unknown one is an error, and
``--help`` prints usage without running anything."""

import pytest

from repro.bench import BENCH_OBS
from repro.bench import __main__ as cli


@pytest.fixture
def no_runs(monkeypatch):
    def run_target(name, scale):
        raise AssertionError(f"target {name} ran")

    monkeypatch.setattr(cli, "run_target", run_target)


def test_unknown_flag_exits_2(no_runs, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--bogus"])
    assert exc.value.code == 2
    assert "--bogus" in capsys.readouterr().err


def test_help_exits_0_without_building_a_cluster(no_runs, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--small", "--trace", "--faults", "--sample-rate",
                 "--slowlog", "--flight", "--tier"):
        assert flag in out
    assert BENCH_OBS.collected == []


@pytest.mark.parametrize("argv, targets, slowlog", [
    (["--slowlog", "fig4"], ["fig4"], ""),
    (["--slowlog=slow.json", "fig4"], ["fig4"], "slow.json"),
    (["--tier", "fig4"], ["tier", "fig4"], None),
    (["fig4", "--tier"], ["fig4", "tier"], None),
    (["fig4", "--small", "fig5"], ["fig4", "fig5"], None),
])
def test_targets_keep_command_line_order(argv, targets, slowlog):
    args = cli.parse_args(argv)
    assert args.targets == targets
    assert args.slowlog == slowlog
