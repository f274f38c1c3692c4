"""Call-count guard for trace synthesis: resolve per trace, per (sender,
round) and per phase what is a function of them, and write one op per op.

Counts, not timings — ``sys.setprofile`` events of ``generate`` — so the
guard reads the same on any machine. The rules are docs/ARCHITECTURE.md's
"what is resolved when" table for the synthetic generators:

* **per trace:** ``grid_neighbors`` once per rank for each distinct
  ``(dims, diagonals)`` the trace's halos use;
* **per (sender, round):** the send-phase jitter, so ``mix64`` runs once
  for each rank that sends in a round;
* **per op:** one ``TraceOp``; stamps, request ids and the walltime clamp
  are arithmetic inside the phase's one emitter call.

Nothing is memoised across traces, so a cold process counts what a warm
one does.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import repro
from repro.traces.model import OpKind
from repro.traces.synthetic import app_names, generate
from repro.util.rng import derive_seed, make_rng

ROUNDS = 4  # the fig7_sweep benchmark's
#: ``call`` + ``c_call`` events per generated op over all 16 applications
#: at default scale: 3.048 measured on CPython 3.11 (12.02 before the
#: generators wrote a phase at a time), plus 10 %.
CALLS_PER_OP_CEILING = 3.35


def _seed_numpy_once() -> None:
    """The first numpy generator a process seeds imports ``numpy.random``
    (a lazy submodule) and fills two ABC subclass caches: the
    interpreter's one-time costs, not state the trace generator keeps."""
    make_rng(derive_seed(0, "numpy's first generator"))


def count_calls(fn, *args, **kwargs):
    """(result, total events, calls by function name); an ``__init__`` is
    also counted under ``"new " + the class it builds``."""
    names: Counter = Counter()
    total = 0

    def hook(frame, event, arg):
        nonlocal total
        if event == "c_call":
            total += 1
            names[getattr(arg, "__name__", "?")] += 1
        elif event == "call":
            total += 1
            name = frame.f_code.co_name
            names[name] += 1
            if name == "__init__":
                names["new " + type(frame.f_locals.get("self")).__name__] += 1

    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, total, names


def _sender_rounds(trace) -> set[tuple[int, int]]:
    """Distinct (sender, round) pairs; a round is the integer part of its
    stamps, since every phase stays inside its round's window."""
    return {
        (rank_trace.rank, int(op.walltime))
        for rank_trace in trace.ranks
        for op in rank_trace.ops
        if op.kind is OpKind.ISEND
    }


def test_calls_per_generated_op():
    _seed_numpy_once()
    calls = ops = 0
    for app in app_names():
        trace, total, _names = count_calls(generate, app, rounds=ROUNDS)
        calls += total
        ops += trace.total_ops()
    assert calls / ops <= CALLS_PER_OP_CEILING, calls / ops


def test_neighbor_tables_are_per_trace():
    for app in app_names():
        trace, _total, names = count_calls(generate, app, rounds=ROUNDS)
        grids = len(_grids_of(app))
        assert names["grid_neighbors"] <= trace.nprocs * grids, (app, names["grid_neighbors"])


def _grids_of(app: str) -> set:
    """The distinct ``(dims, diagonals)`` an app's halos ask for."""
    from repro.traces.synthetic import base

    seen = set()
    original = base.TraceBuilder.neighbor_table

    def spy(self, dims, diagonals):
        seen.add((dims, diagonals))
        return original(self, dims, diagonals)

    base.TraceBuilder.neighbor_table = spy
    try:
        generate(app, rounds=ROUNDS)
    finally:
        base.TraceBuilder.neighbor_table = original
    return seen


def test_jitter_is_per_sender_and_round():
    for app in app_names():
        trace, _total, names = count_calls(generate, app, rounds=ROUNDS)
        pairs = _sender_rounds(trace)
        senders = {sender for sender, _round in pairs}
        rounds = {int(op.walltime) for rank_trace in trace.ranks for op in rank_trace.ops}
        assert names["mix64"] == len(pairs) <= len(senders) * len(rounds), app


def test_no_per_op_calls_in_phase_patterns():
    """A halo writes a phase with one emitter call per rank: nothing per
    op but the ``TraceOp`` itself."""
    trace, _total, names = count_calls(generate, "BoxLib CNS", rounds=ROUNDS)
    p2p = sum(op.kind in (OpKind.IRECV, OpKind.ISEND) for r in trace.ranks for op in r.ops)
    assert names["new TraceOp"] == trace.total_ops()
    assert names["emit"] == 2 * trace.nprocs * ROUNDS < p2p / 10
    for per_op in ("irecv", "isend", "_at", "max", "recv", "send", "_tick"):
        assert names[per_op] < p2p / 10, (per_op, names[per_op])


#: The fresh process seeds one numpy generator (``_seed_numpy_once``)
#: before the cold count, and nothing else.
_COLD_THEN_WARM = """
import json
from repro.traces.synthetic import app_names, generate
from tests.traces.test_synthetic_calls import ROUNDS, _seed_numpy_once, count_calls
_seed_numpy_once()
counts = {"cold": {}, "warm": {}}
for phase in counts:
    for app in app_names():
        counts[phase][app] = count_calls(generate, app, rounds=ROUNDS)[1]
print(json.dumps(counts))
"""


def test_a_cold_process_counts_what_a_warm_one_does():
    """Every app generated twice in a fresh process: the first generation
    of each costs exactly what the second does."""
    root = Path(__file__).resolve().parents[2]
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(root)]))
    out = subprocess.run(
        [sys.executable, "-c", _COLD_THEN_WARM],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    ).stdout
    counts = json.loads(out)
    assert counts["cold"] == counts["warm"]
    assert set(counts["cold"]) == set(app_names())
