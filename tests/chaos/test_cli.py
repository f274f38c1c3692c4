"""``repro-chaos``: one front door over the suite table.

Every suite runs green through the front door and prints its totals
line; usage names every suite; counts below 1 are a usage error that
runs nothing; and a quarantined job is a failed run in the totals and
in the metrics alike.
"""

import pytest

import repro.chaos.cli as cli
import repro.chaos.harness as harness
from repro.chaos.suites import SUITES
from repro.obs.registry import MetricsSnapshot


@pytest.mark.parametrize("suite", SUITES)
def test_front_door_runs_each_suite(suite, capsys):
    row = SUITES[suite]
    argv = [suite, "--schedules", "1"]
    argv += [f"--lane={name}" for name, lane in row.lanes.items() if not lane.mutant]
    if row.sized:
        argv += ["--rounds", "1"]
    assert cli.main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(row.totals.split(":")[0] + ": ")
    assert " 0 failures" in last


def test_unknown_suite_exits_2(capsys):
    assert cli.main(["bogus"]) == 2
    assert "unknown subcommand" in capsys.readouterr().err


def test_usage_lists_every_suite(capsys):
    assert cli.main([]) == 2
    usage = capsys.readouterr().out
    for name in (*SUITES, "health"):
        assert f"\n  {name} " in usage


COUNT_FLAGS = ("--schedules", "--jobs", "--rounds", "--ranks")


@pytest.mark.parametrize(
    "suite,flag",
    [
        (suite, flag)
        for suite, row in SUITES.items()
        for flag in COUNT_FLAGS
        if row.sized or flag in ("--schedules", "--jobs")
    ],
)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_counts_below_one_are_usage_errors(suite, flag, value, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a usage error must run nothing")

    monkeypatch.setattr(cli, "run_suite", never)
    assert cli.main([suite, f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: repro-chaos {suite}")
    assert f"argument {flag}: must be at least 1, got {value}" in err


def test_quarantined_run_is_a_failure_in_totals_and_metrics(tmp_path, monkeypatch, capsys):
    real = harness.run_chaos

    def crash_on_seed_2(config, **kwargs):
        if config.seed == 2:
            raise RuntimeError("worker crashed")
        return real(config, **kwargs)

    monkeypatch.setattr(harness, "run_chaos", crash_on_seed_2)
    metrics = tmp_path / "soak.metrics.json"
    argv = ["soak", "--schedules", "3", "--lane", "clean", "--lane", "drops",
            "--jobs", "1", "--metrics-out", str(metrics)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    for lane in ("clean", "drops"):
        assert f"FAIL {lane} seed=2: quarantined (RuntimeError: worker crashed)" in captured.err
    assert captured.out.splitlines()[-1] == "chaos soak: 6 runs, 2 failures"
    snapshot = MetricsSnapshot.from_json(metrics.read_text())
    for lane in ("clean", "drops"):
        assert snapshot.get(f"chaos.runs{{profile={lane}}}") == 3
        assert snapshot.get(f"chaos.failures{{profile={lane}}}") == 1
