"""Span tracing from outside the program: timing wrappers on the public
boundary functions of each layer, installed for the traced run only.

A span is one call through a boundary: name, start, end, the span that
caused it, and the rep it belongs to. Spans stay in memory until the run
ends. A layer's self time is its span's duration minus the part its child
spans cover; busy time is inclusive, counting the outermost span only where
a boundary re-enters itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable

#: span name -> the (module, owner, attribute) sites it times. ``owner`` is
#: a class name for methods (class-attribute wrap) or "" for a module
#: function, in which case ``module`` is where the *caller* looks the name
#: up: ``fleet.kinds._analyze_app`` imports ``generate`` and ``analyze`` at
#: call time from the packages named here, ``analyzer.sweep`` holds its own
#: ``run_jobs``, ``fleet.worker`` its ``encode_result`` and
#: ``fleet.scheduler`` its ``decode_result``.
BOUNDARIES: dict[str, tuple[tuple[str, str, str], ...]] = {
    "core.post_receive": (("repro.core.engine", "OptimisticMatcher", "post_receive"),),
    "core.submit_message": (("repro.core.engine", "OptimisticMatcher", "submit_message"),),
    "core.process_block": (("repro.core.engine", "OptimisticMatcher", "process_block"),),
    "matching.list_post": (("repro.matching.list_matcher", "ListMatcher", "post_receive"),),
    "matching.list_incoming": (
        ("repro.matching.list_matcher", "ListMatcher", "incoming_message"),
    ),
    "dpa.block_cycles": (("repro.dpa.costs", "DpaCostModel", "block_cycles"),),
    "bench.run_optimistic": (("repro.bench.pingpong", "PingPongBench", "run_optimistic"),),
    "bench.run_mpi_cpu": (("repro.bench.pingpong", "PingPongBench", "run_mpi_cpu"),),
    "rdma.send": (("repro.rdma.protocol", "RdmaSender", "send"),),
    "rdma.progress": (("repro.rdma.protocol", "RdmaReceiver", "progress"),),
    "rdma.rc_transmit": (("repro.rdma.reliability", "ReliableWire", "transmit"),),
    "rdma.rc_receive": (("repro.rdma.reliability", "ReliableWire", "receive"),),
    "net.wire_transmit": (("repro.net.fabricwire", "FabricWire", "transmit"),),
    "net.wire_receive": (("repro.net.fabricwire", "FabricWire", "receive"),),
    "net.inject": (("repro.net.fabric", "Fabric", "inject"),),
    "net.deliver": (("repro.net.fabric", "Fabric", "deliver"),),
    "net.cluster_init": (("repro.net.cluster", "ClusterSim", "__init__"),),
    "net.cluster_run": (("repro.net.cluster", "ClusterSim", "run"),),
    "net.cluster_report": (("repro.net.cluster", "ClusterSim", "report"),),
    "obs.ledger_stamp": (
        ("repro.obs.ledger", "FlightRecorder", "open"),
        ("repro.obs.ledger", "FlightRecorder", "stamp"),
        ("repro.obs.ledger", "FlightRecorder", "stamp_at"),
        ("repro.obs.ledger", "FlightRecorder", "complete"),
    ),
    "traces.generate": (("repro.traces.synthetic", "", "generate"),),
    "analyzer.analyze": (("repro.analyzer.processing", "", "analyze"),),
    "fleet.run_jobs": (("repro.analyzer.sweep", "", "run_jobs"),),
    "fleet.encode": (("repro.fleet.worker", "", "encode_result"),),
    "fleet.decode": (("repro.fleet.scheduler", "", "decode_result"),),
}

SPAN_NAMES: tuple[str, ...] = tuple(BOUNDARIES)

TRACE_SCHEMA = "benchmarks.wallclock.trace/v1"


COLUMNS = ("name", "start_ns", "end_ns", "parent", "rep")


class Tracer:
    """Records spans in memory; ``install`` wraps the boundaries and
    ``restore`` puts every original attribute back."""

    def __init__(self) -> None:
        #: One entry per span in each column. Columns of ints, not a row
        #: object per span: a cluster rep records over 100 000 spans, and
        #: that many tracked objects made the collector the traced run's
        #: main cost.
        self.columns: dict[str, list[int]] = {column: [] for column in COLUMNS}
        #: Position of the span now open at each nesting level; -1 is the rep.
        self.stack: list[int] = [-1]
        self.rep = -1
        #: Engines whose ``process_block`` ran this rep: the ping-pong
        #: drivers build their engine internally, and its public ``stats``
        #: is where the exact ``core.*`` counts live.
        self.engines: dict[int, Any] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    def begin_rep(self, rep: int) -> None:
        self.rep = rep
        self.engines = {}

    def wrap(self, name: str, fn: Callable, *, keep_self: bool = False) -> Callable:
        index = SPAN_NAMES.index(name)
        names, starts, ends, parents, reps = (self.columns[c] for c in COLUMNS)
        stack, tracer, clock = self.stack, self, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep_self:
                tracer.engines[id(args[0])] = args[0]
            position = len(names)
            names.append(index)
            parents.append(stack[-1])
            reps.append(tracer.rep)
            ends.append(0)
            stack.append(position)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[position] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in BOUNDARIES.items():
            for module_name, owner_name, attr in sites:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(
                    owner,
                    attr,
                    self.wrap(name, original, keep_self=name == "core.process_block"),
                )

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def to_json(self, path: str, *, meta: dict) -> None:
        """Write ``trace.json``: one array per column, one entry per span;
        ``name`` indexes ``names``, ``parent`` is a span position or -1."""
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {
                    "schema": TRACE_SCHEMA,
                    "meta": meta,
                    "names": list(SPAN_NAMES),
                    "spans": self.columns,
                },
                fp,
                separators=(",", ":"),
            )


def ledger(columns: dict[str, list[int]]) -> dict:
    """Per rep and span name: calls, inclusive busy ns and self ns.

    Returns ``{rep: {name: {"calls", "busy_ns", "self_ns"}}}``.
    """
    name, start, end, parent, rep = (columns[c] for c in COLUMNS)
    covered = [0] * len(name)  # ns of each span covered by its direct children
    for position, up in enumerate(parent):
        if up >= 0:
            covered[up] += end[position] - start[position]
    out: dict[int, dict[str, dict[str, int]]] = {}
    for position, index in enumerate(name):
        cell = out.setdefault(rep[position], {}).setdefault(
            SPAN_NAMES[index], {"calls": 0, "busy_ns": 0, "self_ns": 0}
        )
        duration = end[position] - start[position]
        cell["calls"] += 1
        cell["self_ns"] += duration - covered[position]
        up = parent[position]
        while up >= 0 and name[up] != index:
            up = parent[up]
        if up < 0:  # outermost span of this name
            cell["busy_ns"] += duration
    return out
