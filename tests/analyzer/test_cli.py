"""Tests for the repro-analyze CLI."""

import pytest

from repro.analyzer.cli import main
from repro.traces.reader import save_trace
from repro.traces.synthetic import generate


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "BoxLib CNS" in out
        assert len(out.strip().splitlines()) == 16

    def test_table2(self, capsys):
        assert main(["--table", "2"]) == 0
        assert "Processes" in capsys.readouterr().out

    def test_single_app(self, capsys):
        assert main(["--app", "AMG", "--bins", "1,32", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "AMG" in out

    def test_trace_dir(self, capsys, tmp_path):
        save_trace(generate("AMG", rounds=2), tmp_path / "amg")
        assert main(["--trace-dir", str(tmp_path / "amg"), "--bins", "1"]) == 0
        # The name comes from meta.txt, not the directory.
        assert "AMG" in capsys.readouterr().out

    def test_bad_bins_rejected(self):
        with pytest.raises(SystemExit):
            main(["--app", "AMG", "--bins", "0"])
        with pytest.raises(SystemExit):
            main(["--app", "AMG", "--bins", "abc"])

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro-analyze" in capsys.readouterr().out

    def test_figure6_small(self, capsys):
        # Uses every app at tiny scale; keep rounds low for speed.
        assert main(["--figure", "6", "--rounds", "2", "--processes", "8"]) == 0
        out = capsys.readouterr().out
        assert "HILO" in out


class TestPlotFlags:
    def test_figure7_plot(self, capsys):
        from repro.analyzer.cli import main

        assert main(["--figure", "7", "--bins", "1,32", "--rounds", "2",
                     "--processes", "8", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "mean experienced depth" in out
        assert "│" in out

    def test_bench_plot(self, capsys):
        from repro.bench.cli import main as bench_main

        assert bench_main(["--k", "16", "--repetitions", "2", "--in-flight", "32",
                           "--threads", "4", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "message rate (Mmsg/s)" in out
        assert "█" in out


class TestFullReportAnalyzesOnce:
    def test_report_and_metrics_share_one_analysis_per_bin_count(self, tmp_path, monkeypatch):
        from repro.analyzer.statistics import QueueDepthStats

        analyzed = []
        real = QueueDepthStats.from_datapoints.__func__

        def counting(cls, bins, points, **kwargs):
            analyzed.append(bins)
            return real(cls, bins, points, **kwargs)

        monkeypatch.setattr(QueueDepthStats, "from_datapoints", classmethod(counting))
        metrics = tmp_path / "metrics.json"
        argv = ["--app", "AMG", "--processes", "8", "--rounds", "2", "--bins", "3,5"]
        assert main(argv + ["--metrics-out", str(metrics)]) == 0
        assert analyzed.count(3) == 1 and analyzed.count(5) == 1
        assert "analysis.bins3.depth" in metrics.read_text()
