"""Trace pin: what the synthetic generators write, op by op.

The Fig. 7 analyzer merges ranks by walltime, and the cluster drivers
replay traces in program order, so every field of every op is output:
kind, peer, tag, comm, size, request and the exact walltime
(``float.hex``). The fixture holds one sha-256 per trace:

* all 16 Table II applications at ``rounds`` 2 and 6, default scale;
* all 16 at the paper's Table II scale, ``rounds=1``;
* ``cluster_workload`` halo, alltoall and hotspot at 16 and 64 ranks;
* the two ``resilience_round`` workloads.

``test_analysis_pin.py`` does not replace this: a walltime can move
without reordering the analyzer's merge, and then its bytes stay put.

Re-pin (``PYTHONPATH=src python -m tests.traces.test_trace_pin``) only
in a change that alters a generated trace on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.net.cluster import CLUSTER_APPS, cluster_workload
from repro.resilience.cluster import RESILIENCE_APPS, resilience_round
from repro.traces.synthetic import APPLICATIONS, app_names, generate

FIXTURE = Path(__file__).parent / "fixtures" / "trace_pin.json"

DEFAULT_ROUNDS = (2, 6)
CLUSTER_RANKS = (16, 64)
RESILIENCE_RANKS = 16


def trace_sha(trace) -> str:
    """sha-256 over every field of every op, walltimes as ``float.hex``."""
    digest = hashlib.sha256(f"{trace.name}|{trace.nprocs}\n".encode())
    for rank_trace in trace.ranks:
        digest.update(f"rank {rank_trace.rank}\n".encode())
        for op in rank_trace.ops:
            digest.update(
                f"{op.kind.value} {op.peer} {op.tag} {op.comm} {op.size} "
                f"{op.request} {op.walltime.hex()}\n".encode()
            )
    return digest.hexdigest()


def _cases() -> dict:
    """Pin key -> a thunk that builds the trace."""
    cases = {}
    for app in app_names():
        for rounds in DEFAULT_ROUNDS:
            cases[f"{app}@default/r{rounds}"] = lambda a=app, r=rounds: generate(a, rounds=r)
        cases[f"{app}@table/r1"] = lambda a=app: generate(
            a, processes=APPLICATIONS[a].table_processes, rounds=1
        )
    for app in CLUSTER_APPS:
        for ranks in CLUSTER_RANKS:
            cases[f"cluster-{app}@{ranks}"] = lambda a=app, n=ranks: cluster_workload(a, n)
    for app in RESILIENCE_APPS:
        cases[f"resilience-{app}@{RESILIENCE_RANKS}"] = lambda a=app: resilience_round(
            a, RESILIENCE_RANKS
        )
    return cases


CASES = _cases()
EXPECTED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_pin_covers_every_trace():
    assert sorted(EXPECTED) == sorted(CASES)
    assert len(app_names()) == 16


@pytest.mark.parametrize("key", sorted(CASES))
def test_trace_bytes_identical(key):
    assert trace_sha(CASES[key]()) == EXPECTED[key], f"trace {key} drifted"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    pin = {key: trace_sha(build()) for key, build in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pin)} traces -> {FIXTURE}")
