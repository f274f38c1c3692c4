"""Tests for engine replay."""

from repro.analyzer import ReplayResult, replay_trace
from repro.core import EngineConfig
from repro.traces.synthetic import generate


class TestReplay:
    def test_replay_counts_match_trace(self):
        trace = generate("FillBoundary", processes=8, rounds=3)
        result = replay_trace(trace)
        from repro.traces.model import OpKind

        sends = sum(
            1
            for rank_trace in trace.ranks
            for op in rank_trace.ops
            if op.kind in (OpKind.ISEND, OpKind.SEND)
        )
        # Every send either matched a posted receive or was stored and
        # later drained — all of them traverse the engines.
        assert result.messages + result.unexpected >= sends
        assert result.optimistic + result.fast_path + result.slow_path + result.unexpected >= sends

    def test_offload_friendliness(self):
        """The paper's claim: the mini-apps are offload-friendly (few
        conflicts). Halo/sweep apps must come out clean."""
        for name in ("BoxLib CNS", "SNAP", "FillBoundary"):
            result = replay_trace(generate(name, processes=8, rounds=3))
            assert result.offload_friendly(), name
            assert result.optimistic_fraction > 0.7

    def test_replay_respects_config(self):
        trace = generate("AMG", rounds=2)
        result = replay_trace(
            trace, EngineConfig(bins=4, block_threads=4, max_receives=4096)
        )
        assert isinstance(result, ReplayResult)
        assert result.messages > 0

    def test_pure_collective_app_has_no_messages(self):
        result = replay_trace(generate("HILO", rounds=3))
        assert result.messages == 0
        assert result.conflict_rate == 0.0
        assert result.optimistic_fraction == 1.0
