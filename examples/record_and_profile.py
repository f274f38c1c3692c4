#!/usr/bin/env python3
"""Record a live run, then profile its matching behaviour.

The full tooling loop in one script: write a small MPI program
against the simulated runtime, *record* its execution as a DUMPI-style
trace, feed that trace to the analyzer for its queue depth at each
bin count, and emit the observability artifacts — a Perfetto-loadable
Chrome trace of the run in virtual walltime plus an ASCII metrics
report — the workflow a user would follow to decide whether their
own application suits offloaded matching.

Run:  python examples/record_and_profile.py
Then open the printed ``.trace.json`` at https://ui.perfetto.dev/.
"""

import tempfile
from pathlib import Path

from repro.analyzer import format_figure7, sweep_trace
from repro.core import ANY_SOURCE, EngineConfig
from repro.mpisim import MpiSim, RecordingSim
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_metrics
from repro.obs.trace import mpi_trace_to_chrome


def producer_consumer_app(recorder: RecordingSim, steps: int) -> None:
    """A small pipeline: rank 0 produces, middle ranks transform,
    the last rank consumes with ANY_SOURCE (a wildcard consumer)."""
    size = recorder.sim.size
    last = size - 1
    for step in range(steps):
        # Stage receives first (well-behaved pre-posting).
        stage_reqs = [
            recorder.irecv(rank, source=rank - 1, tag=step % 3)
            for rank in range(1, last)
        ]
        sink_reqs = [
            recorder.irecv(last, source=ANY_SOURCE, tag=step % 3)
            for _ in range(last)
        ]
        # Rank 0 fans work out along the pipeline...
        recorder.isend(0, 1, step % 3, f"item-{step}".encode())
        # ...each middle rank forwards to its successor and also
        # reports straight to the sink.
        for rank in range(1, last):
            recorder.isend(rank, rank + 1 if rank + 1 < last else last,
                           step % 3, b"fwd")
            recorder.isend(rank, last, step % 3, b"report")
        recorder.isend(0, last, step % 3, b"report")
        for req in stage_reqs:
            recorder.wait(req)
        recorder.waitall(sink_reqs)


def main() -> None:
    sim = MpiSim(6, config=EngineConfig(bins=64, block_threads=8, max_receives=512))
    recorder = RecordingSim(sim, name="producer-consumer")
    producer_consumer_app(recorder, steps=8)

    trace = recorder.trace()
    print(f"recorded {trace.total_ops()} ops across {trace.nprocs} ranks\n")

    results = sweep_trace(trace, (1, 16, 64))  # prepared once for all counts
    print(format_figure7({trace.name: results}))

    # -- observability artifacts --------------------------------------
    # The recorded ops become a Perfetto timeline (one thread track per
    # rank, spans at virtual walltime) ...
    trace_path = Path(tempfile.gettempdir()) / "producer-consumer.trace.json"
    mpi_trace_to_chrome(trace).write(str(trace_path))
    print(f"\nPerfetto trace: {trace_path} (open at https://ui.perfetto.dev/)")

    # ... and the analysis numbers become a metrics snapshot, rendered
    # as the same ASCII report `python -m repro.obs.report` produces.
    registry = MetricsRegistry()
    for bins, analysis in results.items():
        registry.register_stats(f"analysis.bins{bins}.depth", analysis.depth)
    print("\nqueue-depth metrics by bin count:")
    print(render_metrics(registry.snapshot(), match="mean_depth", width=32))


if __name__ == "__main__":
    main()
