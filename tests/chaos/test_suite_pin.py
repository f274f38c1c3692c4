"""Chaos-suite pin: what every ``repro-chaos`` suite enumerates and prints.

For each suite the fixture holds

* the ordered ``JobSpec.digest()`` list at the suite's CI arguments —
  enumeration only: ``run_jobs`` is stubbed, nothing runs.
  Equal digests also mean a ``--cache-dir`` filled by one checkout is
  all hits for the other;
* the exact stdout, stderr and exit code of ``python -m
  repro.chaos.cli <suite>`` at two schedules, verbose, with every
  artifact flag the suite has (paths normalised to ``<tmp>``);
* the sha-256 of each ``--trace-out`` / ``--metrics-out`` /
  ``--ledger-out`` file that run wrote.

A drift names the suite and the first artifact (or job index) that
moved; diff against a checkout of the pinning commit to see what.
Re-pin (``PYTHONPATH=src python -m tests.chaos.test_suite_pin``) only in
a change that moves a simulated quantity on purpose.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.chaos.runner as runner

SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURE = Path(__file__).parent / "fixtures" / "suite_pin.json"

#: suite -> (schedules, other arguments) of its CI step, artifact flags
#: dropped (they do not change what is enumerated).
CI_ARGS: dict[str, tuple[int, list[str]]] = {
    "soak": (25, ["--seed-base", "1"]),
    "cores": (
        16,
        ["--assert-replay", "--assert-takeover", "--assert-mutants-caught"],
    ),
    "overload": (
        16,
        ["--assert-demotion", "--assert-eviction", "--assert-recall",
         "--assert-takeover"],
    ),
    "cluster": (8, ["--verbose"]),
    "ranks": (8, ["--verbose"]),
}

#: suite -> the artifact files it can write.
ARTIFACTS: dict[str, tuple[str, ...]] = {
    "soak": ("trace", "ledger", "metrics"),
    "cores": ("trace", "metrics"),
    "overload": ("trace", "metrics"),
    "cluster": (),
    "ranks": (),
}


def _cli(argv: list[str]) -> subprocess.CompletedProcess:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-m", "repro.chaos.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


@functools.cache
def _count_flag(suite: str) -> str:
    """``--schedules``, or ``--seeds`` where a checkout's soak suite
    still spells it that way, so one pin checks both sides of the
    rename."""
    from repro.chaos.cli import main

    usage = io.StringIO()
    with contextlib.redirect_stdout(usage), contextlib.suppress(SystemExit):
        main([suite, "--help"])
    return "--schedules" if "--schedules" in usage.getvalue() else "--seeds"


class _Enumerated(Exception):
    pass


def enumerate_digests(suite: str, monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """The suite's job digests at its CI arguments, in submission order."""
    from repro.chaos.cli import main

    digests: list[str] = []

    def run(specs, **kwargs):
        digests.extend(spec.digest() for spec in specs)
        raise _Enumerated

    schedules, rest = CI_ARGS[suite]
    with monkeypatch.context() as patch:
        patch.setattr(runner, "run_jobs", run)
        with pytest.raises(_Enumerated):
            main([suite, _count_flag(suite), str(schedules), *rest])
    return digests


def run_small(suite: str, tmp: Path) -> dict:
    """Stdout, stderr, exit code and artifact digests at 2 schedules."""
    argv = [suite, _count_flag(suite), "2", "--verbose"]
    for kind in ARTIFACTS[suite]:
        argv += [f"--{kind}-out", str(tmp / f"{suite}.{kind}.json")]
    proc = _cli(argv)
    return {
        "exit": proc.returncode,
        "stdout": proc.stdout.replace(str(tmp), "<tmp>"),
        "stderr": proc.stderr.replace(str(tmp), "<tmp>"),
        "artifacts": {
            kind: hashlib.sha256(
                (tmp / f"{suite}.{kind}.json").read_bytes()
            ).hexdigest()
            for kind in ARTIFACTS[suite]
        },
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("suite", CI_ARGS)
def test_job_digests_pinned(suite, pinned, monkeypatch):
    got = enumerate_digests(suite, monkeypatch)
    want = pinned[suite]["digests"]
    first = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), None
    )
    assert first is None, f"{suite}: job #{first} drifted"
    assert len(got) == len(want), f"{suite}: {len(got)} jobs, pinned {len(want)}"


@pytest.mark.parametrize("suite", CI_ARGS)
def test_cli_output_pinned(suite, pinned, tmp_path):
    got = run_small(suite, tmp_path)
    want = pinned[suite]["small"]
    for key in ("exit", "stderr", "stdout", "artifacts"):
        assert got[key] == want[key], f"{suite}: {key} drifted"


if __name__ == "__main__":  # pragma: no cover - re-pin entry point
    import tempfile

    payload = {}
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        for suite in CI_ARGS:
            payload[suite] = {
                "digests": enumerate_digests(suite, mp),
                "small": run_small(suite, Path(tmp)),
            }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
