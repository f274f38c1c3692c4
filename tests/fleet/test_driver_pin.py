"""Driver pin: what the fleet-routed CLIs print and write.

The fixture holds

* the exact stdout of ``repro-msgrate`` at its defaults (Fig. 8);
* the exact stdout of ``repro-fleet sweep --apps AMG,BigFFT,MiniFe
  --bins 1,32 --rounds 2`` (a Fig. 7 grid of six cells);
* the sha-256 of the ``cells`` array that ``repro.bench.cluster`` and
  ``repro.bench.resilience`` write, each cell's ``cached`` flag
  stripped (it says where a cell came from, not what it holds).

Stderr is not pinned: the ``fleet:`` line carries wall-clock time.
A drift names the driver; diff its output against a checkout of the
pinning commit to see what moved. Re-pin (``PYTHONPATH=src python -m
tests.fleet.test_driver_pin``) only in a change that moves a simulated
quantity on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent / "fixtures" / "driver_pin.json"

#: driver -> (module whose ``main`` runs it, arguments); ``cells``
#: drivers also get ``--out``.
STDOUT_DRIVERS: dict[str, tuple[str, list[str]]] = {
    "msgrate": ("repro.bench.cli", []),
    "fleet_sweep": (
        "repro.fleet.cli",
        ["sweep", "--apps", "AMG,BigFFT,MiniFe", "--bins", "1,32", "--rounds", "2"],
    ),
}
CELLS_DRIVERS: dict[str, str] = {
    "bench_cluster": "repro.bench.cluster",
    "bench_resilience": "repro.bench.resilience",
}


def _cli(module: str, argv: list[str]) -> str:
    """Run ``module.main(argv)`` in-process; its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = importlib.import_module(module).main(argv)
    assert code == 0, f"{module} exited {code}: {err.getvalue()}"
    return out.getvalue()


def driver_stdout(driver: str) -> str:
    module, argv = STDOUT_DRIVERS[driver]
    return _cli(module, argv)


def cells_digest(driver: str, tmp: Path) -> str:
    out = tmp / f"{driver}.json"
    _cli(CELLS_DRIVERS[driver], ["--out", str(out)])
    cells = [
        {key: value for key, value in cell.items() if key != "cached"}
        for cell in json.loads(out.read_text())["cells"]
    ]
    return hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("driver", STDOUT_DRIVERS)
def test_stdout_pinned(driver, pinned):
    assert driver_stdout(driver) == pinned[driver], f"{driver}: stdout drifted"


@pytest.mark.parametrize("driver", CELLS_DRIVERS)
def test_cells_pinned(driver, pinned, tmp_path):
    assert cells_digest(driver, tmp_path) == pinned[driver], f"{driver}: cells drifted"


if __name__ == "__main__":  # pragma: no cover - re-pin entry point
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = {driver: driver_stdout(driver) for driver in STDOUT_DRIVERS}
        payload.update({driver: cells_digest(driver, Path(tmp)) for driver in CELLS_DRIVERS})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
