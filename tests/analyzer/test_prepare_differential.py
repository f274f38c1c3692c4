"""Differential oracle: ``prepare`` + per-bin replay against the per-cell
loop it replaced (``reference_analyze.py``) on random small traces.

An ``AppAnalysis`` is simulated output, so the two must agree field for
field — and a prepared trace must give the same analysis however often,
and in whatever bin-count order, it is replayed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyzer.processing import analyze, prepare
from repro.core.constants import ANY_SOURCE, ANY_TAG
from repro.traces.model import OpKind, RankTrace, Trace, TraceOp
from tests.analyzer.reference_analyze import reference_analyze

COMMON = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
#: The replay-order properties re-run the same machinery; fewer examples do.
FEWER = settings(COMMON, max_examples=40)

NPROCS = 3
TAGS = 2

sources = st.one_of(st.integers(0, NPROCS - 1), st.just(ANY_SOURCE))
tags = st.one_of(st.integers(0, TAGS - 1), st.just(ANY_TAG))
#: Few distinct walltimes, so merges tie and break by rank and position.
walltimes = st.integers(0, 6).map(float)

#: One op: wildcard and concrete receives, sends that may find no
#: receive posted (unexpected arrivals), progress ops, and the
#: collectives / one-sided calls that are counted but not matched.
trace_ops = st.one_of(
    st.builds(
        TraceOp,
        kind=st.sampled_from([OpKind.IRECV, OpKind.RECV]),
        peer=sources,
        tag=tags,
        size=st.integers(0, 64),
        walltime=walltimes,
    ),
    st.builds(
        TraceOp,
        kind=st.sampled_from([OpKind.ISEND, OpKind.SEND]),
        peer=st.integers(0, NPROCS - 1),
        tag=st.integers(0, TAGS - 1),
        size=st.integers(0, 64),
        walltime=walltimes,
    ),
    st.builds(
        TraceOp,
        kind=st.sampled_from(
            [OpKind.WAIT, OpKind.WAITALL, OpKind.TEST, OpKind.ALLREDUCE, OpKind.BARRIER, OpKind.PUT]
        ),
        walltime=walltimes,
    ),
)

traces = st.lists(
    st.lists(trace_ops, max_size=14), min_size=NPROCS, max_size=NPROCS
).map(
    lambda per_rank: Trace(
        name="random",
        nprocs=NPROCS,
        ranks=[RankTrace(rank, ops) for rank, ops in enumerate(per_rank)],
    )
)
bin_counts = st.sampled_from([1, 2, 32])


@COMMON
@given(traces, bin_counts)
def test_analyze_equals_reference(trace, bins):
    expected = reference_analyze(trace, bins, keep_datapoints=True)
    assert analyze(trace, bins, keep_datapoints=True) == expected
    assert analyze(prepare(trace), bins, keep_datapoints=True) == expected


@FEWER
@given(traces)
def test_one_prepared_trace_replays_in_any_order(trace):
    prepared = prepare(trace)
    first_32 = analyze(prepared, 32, keep_datapoints=True)
    at_1 = analyze(prepared, 1, keep_datapoints=True)
    again_32 = analyze(prepared, 32, keep_datapoints=True)
    assert first_32 == again_32 == reference_analyze(trace, 32, keep_datapoints=True)
    assert at_1 == reference_analyze(trace, 1, keep_datapoints=True)


@FEWER
@given(traces)
def test_analyses_do_not_share_containers(trace):
    """A caller may edit an analysis; the next replay must not see it."""
    prepared = prepare(trace)
    first = analyze(prepared, 2)
    first.tag_usage[12345] += 1
    first.wildcard_usage.clear()
    first.p2p_kinds.clear()
    first.call_mix.clear()
    assert analyze(prepared, 2) == reference_analyze(trace, 2)


def test_prepare_is_idempotent_and_strips_nothing():
    trace = Trace(
        name="t",
        nprocs=2,
        ranks=[
            RankTrace(0, [TraceOp(OpKind.ISEND, peer=1, tag=3, walltime=1.0)]),
            RankTrace(1, [TraceOp(OpKind.IRECV, peer=0, tag=3, walltime=0.5),
                          TraceOp(OpKind.WAIT, walltime=2.0)]),
        ],
    )
    prepared = prepare(trace)
    assert prepare(prepared) is prepared
    assert prepared.total_ops == 3 and len(prepared.steps) == 3
    # The envelope carries its §IV-D inline hashes: no bin count in them.
    (envelope,) = [item for _code, _rank, item in prepared.steps if hasattr(item, "send_seq")]
    assert envelope.inline_hashes is not None and envelope.arrival == 0
