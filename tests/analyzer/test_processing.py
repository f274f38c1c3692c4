"""Tests for the trace-processing stage and the report layer."""

import pytest

from repro.analyzer import (
    analyze,
    depth_reduction_summary,
    figure6_rows,
    figure7_rows,
    format_figure6,
    format_figure7,
    format_table2,
    sweep_applications,
    sweep_trace,
    table2_rows,
)
from repro.core.constants import ANY_SOURCE, ANY_TAG
from repro.core import WildcardClass
from repro.traces.model import OpGroup, OpKind, RankTrace, Trace, TraceOp
from repro.traces.synthetic import TraceBuilder, generate, halo_exchange_round
from tests.analyzer.reference_analyze import reference_analyze


def two_rank_trace():
    """Rank 1 posts two receives, rank 0 sends two messages, rank 1
    progresses — one clean datapoint."""
    r0 = RankTrace(
        0,
        [
            TraceOp(kind=OpKind.ISEND, peer=1, tag=0, request=0, walltime=0.5),
            TraceOp(kind=OpKind.ISEND, peer=1, tag=1, request=1, walltime=0.6),
        ],
    )
    r1 = RankTrace(
        1,
        [
            TraceOp(kind=OpKind.IRECV, peer=0, tag=0, request=0, walltime=0.1),
            TraceOp(kind=OpKind.IRECV, peer=0, tag=1, request=1, walltime=0.2),
            TraceOp(kind=OpKind.WAITALL, size=2, walltime=0.9),
        ],
    )
    return Trace(name="two-rank", nprocs=2, ranks=[r0, r1])


class TestAnalyze:
    def test_basic_counts(self):
        analysis = analyze(two_rank_trace(), bins=8)
        assert analysis.nprocs == 2
        assert analysis.total_ops == 5
        assert analysis.depth.datapoints == 1
        assert analysis.depth.unexpected_total == 0
        assert analysis.p2p_kinds[OpKind.ISEND] == 2
        assert analysis.p2p_kinds[OpKind.IRECV] == 2

    def test_call_mix(self):
        mix = analyze(two_rank_trace(), bins=8).call_mix
        assert mix[OpGroup.P2P] == 1.0

    def test_unique_pairs_and_tags(self):
        analysis = analyze(two_rank_trace(), bins=8)
        assert analysis.unique_pairs == 2
        assert analysis.unique_tags() == 2

    def test_wildcard_usage_recorded(self):
        trace = Trace(
            name="wc",
            nprocs=2,
            ranks=[
                RankTrace(0, [TraceOp(kind=OpKind.ISEND, peer=1, tag=0, walltime=0.5)]),
                RankTrace(
                    1,
                    [
                        TraceOp(kind=OpKind.IRECV, peer=ANY_SOURCE, tag=0, walltime=0.1),
                        TraceOp(kind=OpKind.WAIT, request=0, walltime=0.9),
                    ],
                ),
            ],
        )
        analysis = analyze(trace, bins=8)
        assert analysis.wildcard_usage[WildcardClass.SOURCE] == 1

    def test_unexpected_message_counted(self):
        trace = Trace(
            name="unexpected",
            nprocs=2,
            ranks=[
                RankTrace(0, [TraceOp(kind=OpKind.ISEND, peer=1, tag=3, walltime=0.1)]),
                RankTrace(
                    1,
                    [
                        TraceOp(kind=OpKind.IRECV, peer=0, tag=3, walltime=0.5),
                        TraceOp(kind=OpKind.WAIT, request=0, walltime=0.9),
                    ],
                ),
            ],
        )
        analysis = analyze(trace, bins=8)
        assert analysis.depth.unexpected_total == 1
        assert analysis.depth.drained_total == 1

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            analyze(two_rank_trace(), bins=0)

    def test_queue_depth_equals_prepost_count_at_one_bin(self):
        """A k-deep pre-posted halo must show ~k-1 max walk at 1 bin
        (the last-matched receive walks past the k-1 posted before it)."""
        builder = TraceBuilder("halo", 8)
        halo_exchange_round(builder, (2, 2, 2))
        analysis = analyze(builder.build(), bins=1)
        # 2x2x2 periodic face-neighbors: 3 distinct neighbors.
        assert analysis.depth.max_depth == 2

    def test_counters_iterate_in_first_seen_order(self):
        """``most_common`` breaks ties by insertion order and the reports
        print from these counters, so the order is part of the result:
        counts here tie, and no key arrives in enum or numeric order."""
        receives = [(ANY_SOURCE, ANY_TAG), (0, ANY_TAG), (ANY_SOURCE, 9), (0, 4)]
        kinds = [OpKind.RECV, OpKind.IRECV, OpKind.RECV, OpKind.IRECV]
        r1 = RankTrace(
            1,
            [
                TraceOp(kind=kind, peer=source, tag=tag, walltime=0.1 * position)
                for position, (kind, (source, tag)) in enumerate(zip(kinds, receives))
            ]
            + [TraceOp(kind=OpKind.WAITALL, size=4, walltime=2.0)],
        )
        r0 = RankTrace(
            0,
            [
                TraceOp(kind=OpKind.BARRIER, walltime=0.05),
                TraceOp(kind=OpKind.SEND, peer=1, tag=7, walltime=1.0),
                TraceOp(kind=OpKind.ISEND, peer=1, tag=4, walltime=1.1),
                TraceOp(kind=OpKind.SEND, peer=1, tag=9, walltime=1.2),
                TraceOp(kind=OpKind.ISEND, peer=1, tag=2, walltime=1.3),
            ],
        )
        trace = Trace(name="ties", nprocs=2, ranks=[r0, r1])
        analysis = analyze(trace, bins=8)
        expected = reference_analyze(trace, bins=8)
        assert analysis == expected
        for name in ("p2p_kinds", "wildcard_usage", "tag_usage"):
            counter = getattr(analysis, name)
            assert list(counter) == list(getattr(expected, name)), name
            assert counter.most_common() == getattr(expected, name).most_common(), name
        assert list(analysis.call_mix) == list(expected.call_mix)
        assert list(analysis.p2p_kinds) == [OpKind.RECV, OpKind.IRECV, OpKind.SEND, OpKind.ISEND]
        assert list(analysis.wildcard_usage) == [
            WildcardClass.BOTH, WildcardClass.TAG, WildcardClass.SOURCE, WildcardClass.NONE
        ]
        assert list(analysis.tag_usage) == [9, 4, 7, 2]


class TestSweepMonotonicity:
    def test_depth_decreases_with_bins(self):
        trace = generate("BoxLib CNS", processes=8, rounds=3)
        results = sweep_trace(trace, (1, 32, 128))
        depths = [results[b].depth.mean_depth for b in (1, 32, 128)]
        assert depths[0] > depths[1] >= depths[2]

    def test_reduction_summary(self):
        results = sweep_applications(
            bins_list=(1, 32), rounds=3, names=["BoxLib CNS", "AMG"]
        )
        summary = depth_reduction_summary(results)
        assert summary[1][1] is None
        avg1, _ = summary[1]
        avg32, reduction = summary[32]
        assert avg32 < avg1
        assert reduction == pytest.approx(100 * (1 - avg32 / avg1))


class TestReportFormatting:
    def test_figure6_rows_percentages(self):
        analyses = {"two-rank": analyze(two_rank_trace(), bins=1)}
        ((name, p2p, coll, one_sided),) = figure6_rows(analyses)
        assert name == "two-rank"
        assert p2p == pytest.approx(100.0)
        assert coll == 0.0 and one_sided == 0.0

    def test_format_figure6_contains_apps(self):
        analyses = {"two-rank": analyze(two_rank_trace(), bins=1)}
        text = format_figure6(analyses)
        assert "two-rank" in text
        assert "p2p%" in text

    def test_figure7_rows_sorted_descending(self):
        results = sweep_applications(
            bins_list=(1, 32), rounds=3, names=["BoxLib CNS", "SNAP"]
        )
        rows = figure7_rows(results)
        assert rows[0][0] == "BoxLib CNS"  # deeper queues first

    def test_format_figure7_smoke(self):
        results = sweep_applications(bins_list=(1,), rounds=2, names=["AMG"])
        text = format_figure7(results)
        assert "AMG" in text
        assert "average queue depth" in text

    def test_table2_is_the_paper_table(self):
        rows = table2_rows()
        assert len(rows) == 16
        as_dict = {name: processes for name, _, processes in rows}
        assert as_dict["MiniFe"] == 1152
        assert as_dict["BigFFT"] == 1024
        text = format_table2()
        assert "CrystalRouter" in text and "1152" in text
