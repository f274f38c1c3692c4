"""Count flags of the fleet-routed CLIs: below 1 is a usage error.

A sweep of zero rounds, ranks or repetitions proves nothing, so every
such flag goes through :func:`repro.util.cli.positive`: exit 2, the
flag named on stderr, and no job run. An unknown ``--apps`` name is a
usage error that lists the known apps.
"""

from __future__ import annotations

import pytest

import repro.analyzer.cli
import repro.bench.cli
import repro.bench.cluster
import repro.bench.resilience
import repro.fleet.cli
from repro.fleet import scheduler

#: CLI -> (its main, argv before the flag, count flags).
CLIS = {
    "repro-fleet sweep": (repro.fleet.cli.main, ["sweep"], ("--rounds", "--processes")),
    "repro-fleet bench": (repro.fleet.cli.main, ["bench"], ("--rounds",)),
    "repro-msgrate": (
        repro.bench.cli.main, [], ("--k", "--repetitions", "--in-flight", "--threads")
    ),
    "repro-analyze": (repro.analyzer.cli.main, ["sweep"], ("--rounds", "--processes")),
    "bench.cluster": (repro.bench.cluster.main, [], ("--ranks", "--rounds", "--size")),
    "bench.resilience": (repro.bench.resilience.main, [], ("--ranks", "--rounds", "--size")),
}


@pytest.fixture
def runs_nothing(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a usage error must run nothing")

    monkeypatch.setattr(scheduler, "_run_one", never)


def _exit_code(main, argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize(
    "cli,flag", [(cli, flag) for cli, (_, _, flags) in CLIS.items() for flag in flags]
)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_counts_below_one_are_usage_errors(cli, flag, value, runs_nothing, capsys):
    main, head, _flags = CLIS[cli]
    assert _exit_code(main, [*head, f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 1, got {value}" in err


@pytest.mark.parametrize("command", ["sweep", "bench"])
def test_unknown_app_is_a_usage_error(command, runs_nothing, capsys):
    assert _exit_code(repro.fleet.cli.main, [command, "--apps", "AMG,NoSuchApp"]) == 2
    err = capsys.readouterr().err
    assert "unknown apps ['NoSuchApp']; known: " in err
    assert "BoxLib CNS" in err
