"""Call-count guard for the Fig. 7 sweep: hash per key, replay on flat chains.

Counts, not timings — ``sys.setprofile`` events of a two-application
sweep at bins 1, 32 and 128 — so the guard reads the same on any
machine. The rules are docs/ARCHITECTURE.md's "what is resolved when"
table for the analyzer:

* **per distinct key, in ``prepare``:** ``hash(src, tag)``, ``hash(tag)``
  and ``hash(src)`` once per distinct send key and one word per distinct
  posting key (§IV-D: they "do not depend on receiver state");
* **per trace, in ``prepare``:** kinds and wildcard classes are tallied
  by ordinal in lists, so enum members are hashed a number of times
  bounded by how many kinds there are, not by how many ops;
* **per bin count, in ``analyze``:** nothing is hashed, and none of the
  optimistic engine's per-receive or per-message objects is built — a
  replayed step is a method call and a few list operations.
"""

import sys
from collections import Counter
from enum import Enum

from repro.analyzer.processing import analyze, prepare
from repro.traces.model import OpKind
from repro.traces.synthetic import generate

APPS = ("BoxLib CNS", "AMG")
BINS = (1, 32, 128)
ROUNDS = 3
#: ``call`` + ``c_call`` events per replayed step, the replay's set-up and
#: statistics included. CPython 3.11 counts 2.8 - 3.7 (28 - 34 on the
#: engine's structures); later interpreters inline more and count fewer.
CALLS_PER_STEP_CEILING = 10
#: The engine's machinery a serial depth-counting replay has no use for.
ENGINE_OBJECTS = {
    "IntrusiveList",
    "IntrusiveNode",
    "ReceiveDescriptor",
    "Bitmap",
    "SearchProbeCount",
    "UnexpectedMessage",
    "DescriptorTable",
    "SlotPool",
}


def _profiled(fn, *args):
    """(result, total events, calls by function name, objects built by type)."""
    names: Counter = Counter()
    built: Counter = Counter()
    total = 0

    def hook(frame, event, arg):
        nonlocal total
        if event == "c_call":
            total += 1
        elif event == "call":
            total += 1
            code = frame.f_code
            names[code.co_name] += 1
            if code.co_name == "__init__":
                built[type(frame.f_locals.get("self")).__name__] += 1
            elif code.co_name == "__hash__" and isinstance(frame.f_locals.get("self"), Enum):
                names["Enum.__hash__"] += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, total, names, built


def _keys(trace):
    """(distinct send keys, distinct posting keys) of a trace."""
    sends, postings = set(), set()
    for rank_trace in trace.ranks:
        for op in rank_trace.ops:
            if op.kind in (OpKind.ISEND, OpKind.SEND):
                sends.add((rank_trace.rank, op.tag))
            elif op.kind in (OpKind.IRECV, OpKind.RECV):
                postings.add((op.peer, op.tag))
    return sends, postings


def test_hash_per_key_and_replay_on_flat_chains():
    for app in APPS:
        trace = generate(app, rounds=ROUNDS)
        sends, postings = _keys(trace)
        assert trace.total_ops() > 20 * len(OpKind)  # "per op" would show

        prepared, _total, names, _built = _profiled(prepare, trace)
        assert 0 < names["mix64"] <= 3 * len(sends) + len(postings), app
        assert names["Enum.__hash__"] <= 4 * len(OpKind), (app, names["Enum.__hash__"])
        assert names["classify"] <= len(postings), app

        for bins in BINS:
            analysis, total, names, built = _profiled(analyze, prepared, bins)
            assert analysis.depth.datapoints > 0 and analysis.total_ops == trace.total_ops()
            assert names["mix64"] == 0, (app, bins)
            assert not ENGINE_OBJECTS & set(built), (app, bins, built)
            assert names["Enum.__hash__"] <= len(OpKind), (app, bins)
            # One matcher method per posting / message / progress step.
            steps = len(prepared.steps)
            assert names["post"] + names["deliver"] + names["take_datapoint"] == steps
            assert total / steps <= CALLS_PER_STEP_CEILING, (app, bins, total / steps)
