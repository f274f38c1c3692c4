"""Tests for trace directory I/O and the binary cache."""

import pytest

from repro.traces import load_trace, save_trace
from repro.traces.cache import cache_path, load_cached, store_cache
from repro.traces.model import OpKind, RankTrace, Trace, TraceOp
from repro.traces.synthetic import generate


def small_trace():
    return Trace(
        name="unit",
        nprocs=2,
        ranks=[
            RankTrace(
                0,
                [
                    TraceOp(kind=OpKind.IRECV, peer=1, tag=0, request=0, walltime=0.1),
                    TraceOp(kind=OpKind.WAIT, request=0, walltime=0.2),
                ],
            ),
            RankTrace(1, [TraceOp(kind=OpKind.ISEND, peer=0, tag=0, request=0, walltime=0.15)]),
        ],
    )


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        save_trace(small_trace(), tmp_path / "unit")
        loaded = load_trace(tmp_path / "unit", use_cache=False)
        assert loaded.name == "unit"
        assert loaded.nprocs == 2
        assert loaded.rank(0).ops[0].kind is OpKind.IRECV
        assert loaded.rank(1).ops[0].kind is OpKind.ISEND

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nothing" / "here", use_cache=False)

    def test_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "empty", use_cache=False)

    def test_non_contiguous_ranks_rejected(self, tmp_path):
        d = tmp_path / "gappy"
        d.mkdir()
        (d / "dumpi-0.txt").write_text("")
        (d / "dumpi-2.txt").write_text("")
        with pytest.raises(ValueError, match="non-contiguous"):
            load_trace(d, use_cache=False)

    def test_synthetic_round_trip(self, tmp_path):
        original = generate("AMG", processes=8, rounds=2)
        save_trace(original, tmp_path / "amg")
        loaded = load_trace(tmp_path / "amg", use_cache=False)
        assert loaded.total_ops() == original.total_ops()
        assert loaded.counts_by_group() == original.counts_by_group()


class TestCache:
    def test_cache_hit_after_first_load(self, tmp_path):
        d = tmp_path / "cached"
        save_trace(small_trace(), d)
        first = load_trace(d)
        assert cache_path(d).exists()
        second = load_trace(d)
        assert second.total_ops() == first.total_ops()

    def test_cache_invalidated_on_change(self, tmp_path):
        import os

        d = tmp_path / "inv"
        save_trace(small_trace(), d)
        load_trace(d)
        # Touch a rank file with a different size: fingerprint changes.
        path = d / "dumpi-0.txt"
        path.write_text(path.read_text() + "\n")
        os.utime(path, (1, 1))
        assert load_cached(d) is None

    def test_corrupt_cache_ignored(self, tmp_path):
        d = tmp_path / "corrupt"
        save_trace(small_trace(), d)
        store_cache(d, small_trace())
        cache_path(d).write_bytes(b"garbage")
        assert load_cached(d) is None
        # And loading falls back to parsing.
        assert load_trace(d).nprocs == 2

    def test_store_load_identity(self, tmp_path):
        d = tmp_path / "ident"
        save_trace(small_trace(), d)
        trace = small_trace()
        store_cache(d, trace)
        cached = load_cached(d)
        assert cached is not None
        assert cached.name == trace.name
        assert cached.total_ops() == trace.total_ops()
