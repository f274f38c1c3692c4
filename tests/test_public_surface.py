"""Public-surface pin: every package keeps the names it re-exported.

``SURFACE`` maps each package to its defining modules and the names each
one gives the package. It is the sorted ``__all__`` of every package as it
stood while the ``__init__``s still imported their modules eagerly; a
package ``__init__`` now only names them, and a name loads its defining
module on first use. For every name the pin checks that the package
attribute *is* the defining module's object, that ``from package import *``
binds it, that the first use leaves it in the package namespace (later
lookups never reach the package ``__getattr__``) and that ``dir(package)``
lists it; an unknown name still raises ``AttributeError``, and
``repro.obs.probe`` stays the submodule.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SURFACE = {
    "repro": {
        "repro.core.constants": "ANY_SOURCE ANY_TAG",
        "repro.core.config": "EngineConfig",
        "repro.core.events": "MatchEvent MatchKind ResolutionPath",
        "repro.core.envelope": "MessageEnvelope ReceiveRequest",
        "repro.core.engine": "OptimisticMatcher",
        "repro": "__version__",
    },
    "repro.analyzer": {
        "repro.analyzer.artifact": "export_artifact export_trace_analysis load_summary",
        "repro.analyzer.commgraph": "CommGraphStats build_comm_graph graph_stats",
        "repro.analyzer.compare": "ComparisonReport MetricDelta compare_analyses",
        "repro.analyzer.fullreport": "format_app_report",
        "repro.analyzer.model": "BinsPrediction compare_with_measurement predict",
        "repro.analyzer.processing": "PreparedTrace analyze prepare",
        "repro.analyzer.recommend": "Recommendation recommend_bins",
        "repro.analyzer.report": (
            "depth_reduction_summary figure6_rows figure7_rows format_figure6 format_figure7 "
            "format_table2 table2_rows"
        ),
        "repro.analyzer.statistics": "AppAnalysis Datapoint QueueDepthStats",
        "repro.analyzer.structures": "DepthSnapshot EmulatedMatcher",
        "repro.analyzer.replay": "ReplayResult replay_trace",
        "repro.analyzer.sweep": "BIN_SWEEP FIGURE7_BINS sweep_applications sweep_trace",
    },
    "repro.bench": {
        "repro.bench.apps": "AppRate app_message_rate",
        "repro.bench.latency": "LatencyDistribution dpa_latencies host_latencies",
        "repro.bench.pingpong": (
            "PAPER_K PAPER_REPETITIONS PingPongBench RateResult format_figure8 run_figure8"
        ),
        "repro.bench.scenarios": (
            "PAPER_BINS PAPER_IN_FLIGHT PAPER_THREADS SCENARIOS Scenario scenario_by_name"
        ),
    },
    "repro.chaos": {
        "repro.chaos.harness": "ChaosConfig ChaosReport run_chaos",
    },
    "repro.core": {
        "repro.core.config": "EngineConfig",
        "repro.core.constants": "ANY_SOURCE ANY_TAG WildcardClass classify",
        "repro.core.descriptor": "DescriptorTable DescriptorTableFull ReceiveDescriptor",
        "repro.core.engine": "HintViolation OptimisticMatcher",
        "repro.core.envelope": "InlineHashes MessageEnvelope ReceiveRequest",
        "repro.core.events": "MatchEvent MatchKind ResolutionPath",
        "repro.core.hashing": "compute_inline_hashes",
        "repro.core.stats": "BlockStats EngineStats",
        "repro.core.threadsim": (
            "DeadlockError RandomPolicy RoundRobinPolicy ScriptedPolicy SteppedExecutor"
        ),
    },
    "repro.dpa": {
        "repro.dpa.completion": "StridedPoller",
        "repro.dpa.costs": "DpaCostModel HostCostModel WireModel",
        "repro.dpa.machine": "BF3_CORES BF3_THREADS DpaMachine DpaRunReport",
        "repro.dpa.memory": "BYTES_PER_BIN INDEX_TABLES MemoryModel",
        "repro.dpa.pipeline": "OffloadedEndpoint",
    },
    "repro.fleet": {
        "repro.fleet.cache": "ResultCache",
        "repro.fleet.job": "JobSpec",
        "repro.fleet.kinds": "register_kind",
        "repro.fleet.report": "FleetReport",
        "repro.fleet.scheduler": "FleetError FleetRun JobOutcome run_jobs",
    },
    "repro.matching": {
        "repro.matching.adaptive": "AdaptiveMatcher",
        "repro.matching.base": "Matcher MatcherCosts",
        "repro.matching.bin_matcher": "BinMatcher",
        "repro.matching.channel_matcher": "ChannelMatcher ChannelSemanticsError",
        "repro.matching.fallback": "FallbackMatcher",
        "repro.matching.list_matcher": "ListMatcher",
        "repro.matching.optimistic_adapter": "OptimisticAdapter",
        "repro.matching.oracle": (
            "StreamOp ValidationError check_c2 cross_validate pairings run_stream"
        ),
        "repro.matching.rank_matcher": "RankMatcher",
        "repro.matching.threaded_host": (
            "ContentionModel ThreadedHostResult simulate_threaded_host"
        ),
    },
    "repro.mpisim": {
        "repro.mpisim.collectives": "alltoall barrier bcast gather",
        "repro.mpisim.communicator": "Communicator CommunicatorInfo",
        "repro.mpisim.recorder": "RecordingSim",
        "repro.mpisim.request": "Request RequestKind Status",
        "repro.mpisim.runtime": "MpiSim ProgressStall",
    },
    "repro.net": {
        "repro.net.fabric": "Fabric LinkStats Transfer",
        "repro.net.fabricwire": "FabricWire",
        "repro.net.faults": "LinkFaultPlan",
        "repro.net.placement": "Placement",
        "repro.net.routing": "RouteTable",
        "repro.net.topology": "Topology fat_tree ring topology_by_name torus2d",
    },
    "repro.obs": {
        "repro.obs.hooks": (
            "DegradedWindowWatcher EngineTraceObserver attach_engine_observer "
            "register_stack_metrics"
        ),
        "repro.obs.health": (
            "DriftRule HealthEvent HealthMonitor HealthReport HealthRule RateRule Severity "
            "ThresholdRule default_rules"
        ),
        "repro.obs.ledger": "FlightRecorder LedgerDump MessageRecord NULL_RECORDER NullRecorder",
        "repro.obs.registry": "Counter Gauge Histogram MetricsRegistry MetricsSnapshot",
        "repro.obs.probe": "subscribe subscribed",
        "repro.obs.timeline": (
            "NULL_SAMPLER NullSampler TimeSeries Timeline TimelineSampler install_stack_probes "
            "timeline_to_chrome"
        ),
        "repro.obs.trace": "NULL_TRACER NullTracer ScopedTracer SpanTracer mpi_trace_to_chrome",
        "repro.obs.validate": "validate_chrome_trace",
    },
    "repro.pressure": {
        "repro.pressure.budget": (
            "BudgetOverrun PressureBudget PressureMeter PressureState PressureStats "
            "UNEXPECTED_HEADER_BYTES"
        ),
        "repro.pressure.controller": "PressuredPipeline",
    },
    "repro.rdma": {
        "repro.rdma.bounce": "BounceBuffer BounceBufferPool BouncePoolExhausted",
        "repro.rdma.cq": "Completion CompletionQueue CompletionQueueOverflow",
        "repro.rdma.faultwire": "FaultPlan FaultStats FaultyWire",
        "repro.rdma.flow": "CreditStall CreditedReceiver CreditedSender",
        "repro.rdma.protocol": (
            "DEFAULT_EAGER_THRESHOLD Delivery MessageHeader RdmaReceiver RdmaSender pump"
        ),
        "repro.rdma.qp": "MemoryRegion MemoryRegistry QueuePair StagedMessage",
        "repro.rdma.reliability": "ReliabilityConfig ReliabilityStats ReliableWire TransportError",
        "repro.rdma.wire": "Endpoint Packet Wire packet_checksum",
    },
    "repro.recovery": {
        "repro.recovery.faults": (
            "BitFlipDetected CoreFailStop CoreFault CoreFaultInjector CoreFaultKind "
            "CoreFaultPlan CoreFaultStats"
        ),
        "repro.recovery.journal": "BlockCheckpoint checkpoint_engine host_takeover restore_engine",
        "repro.recovery.quarantine": "CoreQuarantine RecoveryPolicy",
        "repro.recovery.recoverer": "RecoveringMatcher",
        "repro.recovery.supervisor": "RecoveryStats Supervisor",
        "repro.recovery.watchdog": "MatchingWatchdog PairingOracle WatchdogAlert",
    },
    "repro.resilience": {
        "repro.resilience.cluster": (
            "RESILIENCE_APPS ResilienceReport ResilientClusterSim resilience_round run_resilient"
        ),
        "repro.resilience.errors": "RankFailedError",
        "repro.resilience.faults": "RankFaultInjector RankFaultPlan",
        "repro.resilience.heartbeat": "HeartbeatConfig HeartbeatNetwork",
        "repro.resilience.repair": "RepairDecision agree",
        "repro.resilience.snapshot": "RankSnapshot WorldCheckpoint restore_rank snapshot_rank",
    },
    "repro.tools": {
        "repro.tools.reproduce": "reproduce_all write_report",
    },
    "repro.traces": {
        "repro.traces.cache": "load_cached store_cache",
        "repro.traces.dumpi": (
            "TraceParseError format_rank_trace parse_rank_file parse_rank_text write_rank_file"
        ),
        "repro.traces.model": "OpGroup OpKind RankTrace Trace TraceOp",
        "repro.traces.reader": "load_trace rank_file_name save_trace",
    },
    "repro.traces.synthetic": {
        "repro.traces.synthetic.apps": "APPLICATIONS AppSpec app_names generate",
        "repro.traces.synthetic.base": "RankBuilder TraceBuilder",
        "repro.traces.synthetic.patterns": (
            "alltoall_p2p_round grid_dims grid_neighbors halo_exchange_round irregular_round "
            "manytoone_round ring_round sweep_round"
        ),
    },
    "repro.util": {
        "repro.util.bitmap": "Bitmap",
        "repro.util.counters": "MonotonicCounter SequenceLabeler",
        "repro.util.intrusive": "IntrusiveList IntrusiveNode",
        "repro.util.rng": "make_rng",
        "repro.util.slotpool": "SlotPool",
    },
}


def _names(table: dict) -> list[str]:
    return sorted(name for names in table.values() for name in names.split())


@pytest.mark.parametrize("package", sorted(SURFACE))
def test_package_keeps_its_surface(package):
    pkg = importlib.import_module(package)
    table = SURFACE[package]
    assert sorted(pkg.__all__) == _names(table)
    star: dict = {}
    exec(f"from {package} import *", star)
    listed = dir(pkg)
    for module, names in table.items():
        defining = importlib.import_module(module)
        for name in names.split():
            assert getattr(pkg, name) is getattr(defining, name), f"{package}.{name}"
            assert vars(pkg)[name] is getattr(defining, name), f"{package}.{name} not cached"
            assert star[name] is getattr(defining, name), f"from {package} import * lost {name}"
            assert name in listed, f"dir({package}) lacks {name}"
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pkg, "no_such_name")


def test_obs_probe_names_the_submodule():
    """The ``probe`` decorator is not re-exported: the package attribute
    is the :mod:`repro.obs.probe` submodule, whether or not it was loaded."""
    from repro.obs import probe

    assert probe is importlib.import_module("repro.obs.probe")
    assert "probe" not in _names(SURFACE["repro.obs"])


@pytest.mark.parametrize("module", ["repro.obs.validate", "repro.tools.reproduce"])
def test_python_m_runs_the_module_once(module):
    """``python -m`` imports the package before it runs the module; an
    ``__init__`` that imported the module too made runpy run it a second
    time, which ``-W error::RuntimeWarning`` turns into exit 1."""
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
