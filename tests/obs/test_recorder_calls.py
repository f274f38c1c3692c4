"""Call-count, collector and retained-bytes guard for the enabled
flight recorder.

Counts, not timings — ``sys.setprofile`` events, collector-tracked
objects and ``tracemalloc`` bytes — so the guard reads the same on any
machine. The columnar recorder's rules (docs/ARCHITECTURE.md, "Message
lifecycle"):

* **per stamp** the recorder writes one row into preallocated columns
  and reads a few entries: no ``MessageRecord``, no dict lookup by mid,
  no object per row, and nothing on the stamp path reads a header
  through ``getattr``;
* **at export** the per-message views are built — so a cluster run and
  its report build zero ``MessageRecord`` objects;
* what the recorder keeps alive is its typed columns, the fabric's hop
  log, and one flat detail tuple per stamp that carries detail.

The ceilings are the CPython 3.11 counts plus a margin; later
interpreters inline more and count fewer.
"""

import gc
import sys
import tracemalloc
from collections import Counter

from repro.chaos.harness import ChaosConfig, run_chaos
from repro.net.cluster import ClusterSim, cluster_workload
from repro.obs.ledger import FlightRecorder
from repro.rdma.wire import _scalar_checksum, control_frame

RANKS = 16
ROUNDS = 3
#: Recorder-on minus recorder-off ``call`` + ``c_call`` events per
#: delivery of the 16-rank halo: 15.7 measured (23.7 before one recorder
#: call per stamp site, 24.5 with a dict per detail and per
#: ``fabric_hops`` note, 53.5 with a record object per message), plus 10 %.
RECORDER_CALLS_PER_DELIVERY_CEILING = 17.3
#: The chaos pipeline ``python -m repro.obs.overhead --ledger`` times.
CHAOS = ChaosConfig(seed=3, rounds=6)
#: Its recorder's extra events per message: 32.0 measured (41.0 before
#: one recorder call per stamp site, 40.4 with a dict per detail, 65.3
#: with a record object per message), plus 10 %.
CHAOS_CALLS_PER_MESSAGE_CEILING = 35.2
#: Collector-tracked objects its recorder leaves alive per message: 4.8
#: measured (5.0 with a dict per detail, 14.1 with a record object per
#: message), the recorder's few columns included, plus 10 %.
CHAOS_ALIVE_PER_MESSAGE_CEILING = 5.3
#: The halo whose retained bytes are guarded: 64 ranks, 3 rounds.
MEMORY_RANKS = 64
#: ``tracemalloc`` bytes still alive after a run, recorder on minus
#: recorder off, per delivery of that halo: 1 128 measured on CPython
#: 3.11.7 and 1 120 on 3.12.1 (2 523 and 2 515 with a dict per stamp
#: detail, a ``fabric_hops`` dict with its hop lists per injection, and
#: a tuple per note, receive-log entry and opened record), plus 10 %.
RECORDER_BYTES_PER_DELIVERY_CEILING = 1240
#: Where a header's mid is read on the enabled path: by attribute, never
#: through ``getattr``.
STAMP_PATH = {
    ("qp.py", "process_inbound"),
    ("reliability.py", "transmit"),
    ("fabricwire.py", "transmit"),
    ("fabricwire.py", "receive"),
}


def _profiled(fn):
    """(result, total events, calls by qualified name, getattr callers)."""
    calls: Counter = Counter()
    getattr_callers: Counter = Counter()
    total = 0

    def hook(frame, event, arg):
        nonlocal total
        if event == "call":
            total += 1
            calls[frame.f_code.co_qualname] += 1
        elif event == "c_call":
            total += 1
            if arg is getattr:
                code = frame.f_code
                getattr_callers[code.co_filename.rsplit("/", 1)[-1], code.co_name] += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, total, calls, getattr_callers


def _cluster_run(record: bool):
    trace = cluster_workload("halo", RANKS, rounds=ROUNDS)
    # The by-value memos are process-wide; start them empty so both
    # runs pay the same misses.
    _scalar_checksum.cache_clear()
    control_frame.cache_clear()
    return _profiled(lambda: ClusterSim(trace, topology="torus", record=record).run())


def test_cluster_run_builds_no_records_and_reads_no_header_by_getattr():
    report, on, calls, getattr_callers = _cluster_run(record=True)
    _, off, _, _ = _cluster_run(record=False)
    deliveries = report.results["deliveries"]
    assert report.ok and deliveries == RANKS * 4 * ROUNDS
    assert report.results["completed_records"] == deliveries
    # run() ends in report(): neither builds the read model.
    assert calls["MessageRecord.__init__"] == 0
    assert calls["FlightRecorder.passport"] == 0
    assert calls["FlightRecorder.columns"] == 2  # phase totals, conservation
    assert not STAMP_PATH & set(getattr_callers), getattr_callers
    assert not {site for site in getattr_callers if site[0] == "ledger.py"}
    # The engine's ``matched`` stamp reads the path's value without the
    # enum descriptor.
    assert calls["property.__get__"] == 0 and calls["Enum.value"] == 0
    extra = (on - off) / deliveries
    assert extra <= RECORDER_CALLS_PER_DELIVERY_CEILING, extra


def test_chaos_pipeline_recorder_calls_per_message():
    run_chaos(CHAOS)  # warm the process-wide memos
    off_report, off, _, _ = _profiled(lambda: run_chaos(CHAOS))
    on_report, on, calls, _ = _profiled(lambda: run_chaos(CHAOS, recorder=FlightRecorder()))
    assert on_report.sent == off_report.sent > 0
    assert calls["MessageRecord.__init__"] == 0
    extra = (on - off) / on_report.sent
    assert extra <= CHAOS_CALLS_PER_MESSAGE_CEILING, extra


def test_chaos_pipeline_recorder_leaves_few_tracked_objects():
    def alive_after(**kwargs):
        gc.collect()
        before = len(gc.get_objects())
        report = run_chaos(CHAOS, **kwargs)
        gc.collect()
        return len(gc.get_objects()) - before, report

    run_chaos(CHAOS)  # warm the process-wide memos
    off, _ = alive_after()
    recorder = FlightRecorder()
    on, report = alive_after(recorder=recorder)
    assert recorder.mark(0) > 0  # the recorder is alive and recorded
    per_message = (on - off) / report.sent
    assert per_message <= CHAOS_ALIVE_PER_MESSAGE_CEILING, per_message


def test_cluster_recorder_keeps_few_bytes_per_delivery():
    def retained(record: bool):
        trace = cluster_workload("halo", MEMORY_RANKS, rounds=ROUNDS)
        _scalar_checksum.cache_clear()
        control_frame.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            sim = ClusterSim(trace, topology="torus", record=record)
            report = sim.run()
            gc.collect()
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return size, report, sim

    retained(record=True)  # warm the process-wide memos and interned names
    on, report, sim = retained(record=True)
    off, _, _ = retained(record=False)
    deliveries = report.results["deliveries"]
    assert report.ok and deliveries == MEMORY_RANKS * 4 * ROUNDS
    columns = sim.recorder.columns()
    assert columns.phases[columns.tails[0]] == "complete"  # alive, and it recorded
    per_delivery = (on - off) / deliveries
    assert per_delivery <= RECORDER_BYTES_PER_DELIVERY_CEILING, per_delivery
