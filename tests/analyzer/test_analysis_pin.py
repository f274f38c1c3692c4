"""Analysis pin: what Fig. 7 is computed from, byte for byte.

An ``AppAnalysis`` is *simulated* output — queue depths, collisions,
empty-bin fractions, call mix, tag / wildcard usage — so host-side
speedups of the analyzer (preparing a trace once for every bin count,
first-touch matching structures) must leave every cell untouched. The
fixture holds the sha-256 of the fleet-encoded ``AppAnalysis`` of all
16 applications at bins 1, 32 and 128 (``rounds=2``) and the
``JobSpec`` cache digests of three cells, generated at the commit
*before* the prepare/replay split landed.

Re-pin (``PYTHONPATH=src python -m tests.analyzer.test_analysis_pin``)
only in a PR that changes a simulated quantity or a cache key on
purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analyzer.sweep import FIGURE7_BINS, iter_sweep_jobs
from repro.fleet.codec import encode_result
from repro.fleet.kinds import kind_salt, resolve_kind
from repro.traces.synthetic import app_names

FIXTURE = Path(__file__).parent / "fixtures" / "analysis_pin.json"

ROUNDS = 2
#: (app, bins) cells whose cache key is pinned as well.
DIGEST_CELLS = (("BoxLib CNS", 1), ("AMG", 32), ("LULESH", 128))


def _spec(app: str, bins: int):
    (spec,) = iter_sweep_jobs([app], (bins,), rounds=ROUNDS)
    return spec


def _cell_sha(app: str, bins: int) -> str:
    """sha-256 of the cell exactly as a fleet worker would return it."""
    spec = _spec(app, bins)
    result = resolve_kind(spec.kind).fn(dict(spec.params), spec.seed)
    payload = json.dumps(encode_result(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _pin() -> dict:
    return {
        "analyses": {
            app: {str(bins): _cell_sha(app, bins) for bins in FIGURE7_BINS}
            for app in app_names()
        },
        "job_digests": {
            f"{app}@{bins}": _spec(app, bins).digest(kind_salt("analyze_app"))
            for app, bins in DIGEST_CELLS
        },
    }


EXPECTED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_pin_covers_every_application():
    assert sorted(EXPECTED["analyses"]) == sorted(app_names())
    assert len(app_names()) == 16


@pytest.mark.parametrize("app", app_names())
def test_analysis_bytes_identical(app):
    for bins in FIGURE7_BINS:
        assert _cell_sha(app, bins) == EXPECTED["analyses"][app][str(bins)], (
            f"{app} @ {bins} bins drifted"
        )


def test_job_digests_did_not_move():
    for app, bins in DIGEST_CELLS:
        digest = _spec(app, bins).digest(kind_salt("analyze_app"))
        assert digest == EXPECTED["job_digests"][f"{app}@{bins}"], f"{app}@{bins}"


if __name__ == "__main__":  # pragma: no cover - re-pin entry point
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_pin(), indent=2, sort_keys=True) + "\n")
