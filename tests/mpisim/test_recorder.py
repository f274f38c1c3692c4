"""Tests for the trace recorder (simulate -> record -> analyze)."""

import pytest

from repro.analyzer import analyze
from repro.core import EngineConfig
from repro.mpisim import MpiSim
from repro.mpisim.recorder import RecordingSim
from repro.traces.model import OpKind


@pytest.fixture
def recorder():
    sim = MpiSim(4, config=EngineConfig(bins=16, block_threads=4, max_receives=256))
    return RecordingSim(sim, name="unit-app")


class TestRecording:
    def test_ops_recorded_per_rank(self, recorder):
        req = recorder.irecv(1, source=0, tag=5)
        recorder.isend(0, 1, 5, b"data")
        recorder.wait(req)
        trace = recorder.trace()
        assert trace.nprocs == 4
        assert [op.kind for op in trace.rank(1).ops] == [OpKind.IRECV, OpKind.WAIT]
        assert [op.kind for op in trace.rank(0).ops] == [OpKind.ISEND]
        assert trace.rank(0).ops[0].size == 4

    def test_walltimes_monotone(self, recorder):
        for i in range(5):
            recorder.isend(0, 1, i, b"x")
        times = [op.walltime for op in recorder.trace().rank(0).ops]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_delivery_still_works(self, recorder):
        req = recorder.irecv(2, source=3, tag=1)
        recorder.isend(3, 2, 1, b"payload")
        recorder.wait(req)
        assert req.payload == b"payload"

    def test_waitall_recorded_once(self, recorder):
        reqs = [recorder.irecv(0, source=1, tag=t) for t in range(3)]
        for t in range(3):
            recorder.isend(1, 0, t, b"m")
        recorder.waitall(reqs)
        waitalls = [
            op for op in recorder.trace().rank(0).ops if op.kind is OpKind.WAITALL
        ]
        assert len(waitalls) == 1
        assert waitalls[0].size == 3

    def test_annotation(self, recorder):
        recorder.annotate(0, OpKind.ALLREDUCE, size=8)
        ops = recorder.trace().rank(0).ops
        assert ops[-1].kind is OpKind.ALLREDUCE


class TestRecordAnalyzeLoop:
    def test_recorded_halo_matches_generator_depth(self):
        """Record a live halo exchange and verify the analyzer sees
        the same queue depth a generated trace of the same pattern
        shows."""
        from repro.traces.synthetic import grid_dims, grid_neighbors

        sim = MpiSim(8, config=EngineConfig(bins=16, block_threads=4, max_receives=256))
        recorder = RecordingSim(sim, name="live-halo")
        dims = grid_dims(8, 3)
        for step in range(3):
            requests = {
                rank: [
                    recorder.irecv(rank, source=n, tag=step)
                    for n in grid_neighbors(rank, dims)
                ]
                for rank in range(8)
            }
            for rank in range(8):
                for n in grid_neighbors(rank, dims):
                    recorder.isend(rank, n, step, b"edge")
            for rank in range(8):
                recorder.waitall(requests[rank])

        analysis = analyze(recorder.trace(), bins=1)
        # 2x2x2 grid: 3 distinct neighbors pre-posted -> depth ~2-3.
        assert 1 <= analysis.depth.max_depth <= 4
        assert analysis.depth.unexpected_total == 0

    def test_recorded_trace_round_trips_to_disk(self, tmp_path, recorder):
        from repro.traces import load_trace, save_trace

        req = recorder.irecv(1, source=0, tag=0)
        recorder.isend(0, 1, 0, b"x")
        recorder.wait(req)
        save_trace(recorder.trace(), tmp_path / "rec")
        loaded = load_trace(tmp_path / "rec")
        assert loaded.total_ops() == recorder.trace().total_ops()
