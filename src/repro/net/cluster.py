"""ClusterSim: synthetic app traces end-to-end over a shared fabric.

This is the multi-node closure of the pipeline: N ranks placed on a
topology, one RC connection (FabricWire + ReliableWire + a QueuePair
per side) per communicating pair, each rank's queue pairs feeding one
:class:`repro.rdma.protocol.RdmaReceiver`/matcher — the full offload
stack, unchanged, with every byte crossing the simulated network and
contending for links.

The driver is a run-to-block interpreter over a
:class:`repro.traces.model.Trace`: each rank executes its op stream
until it blocks on a wait, then a global progress round polls every
rank's transport. Collectives and one-sided ops are counted and
skipped (the p2p substrate is what the fabric exercises); wildcard
receives execute but are excluded from the stream check below.

Every send's payload carries its identity (``"src>dst:tag:k"``), so
delivery correctness is checked directly against MPI's non-overtaking
rule: the k-th receive posted by ``dst`` for stream ``(src, tag)``
must complete with the k-th message sent on that stream. Over exact
receives this is precisely the C2 pairing order — any fabric-induced
reordering the reliability layer failed to hide shows up as a
violation, with the message's ledger passport attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping

from repro.core.engine import OptimisticMatcher
from repro.core.envelope import ReceiveRequest
from repro.net.fabric import Fabric
from repro.net.fabricwire import FabricWire
from repro.net.faults import LinkFaultPlan
from repro.net.metrics import install_fabric_probes
from repro.net.placement import Placement, placement_by_name
from repro.net.topology import (
    DEFAULT_BANDWIDTH,
    DEFAULT_LATENCY,
    Topology,
    topology_by_name,
)
from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.obs.timeline import NULL_SAMPLER
from repro.rdma.bounce import BounceBufferPool
from repro.rdma.cq import CompletionQueue
from repro.rdma.protocol import (
    DEFAULT_EAGER_THRESHOLD,
    RdmaReceiver,
    RdmaSender,
)
from repro.rdma.qp import QueuePair
from repro.rdma.reliability import ReliabilityConfig, ReliableWire
from repro.traces.model import OpKind, Trace
from repro.traces.synthetic.base import TraceBuilder
from repro.traces.synthetic.patterns import (
    alltoall_p2p_round,
    grid_dims,
    halo_exchange_round,
)

__all__ = [
    "CLUSTER_APPS",
    "ClusterReport",
    "ClusterSim",
    "ClusterStall",
    "cluster_workload",
    "run_cluster",
]

SCHEMA = "repro.net.cluster/v1"

#: Reliability tuning for fabric links: the fabric clock runs much
#: faster than any one pair's poll clock (every rank's every poll
#: ticks it), so transit consumes few per-pair ticks but congested or
#: partitioned runs need a deeper retry budget than the point-to-point
#: default before the transport (correctly) fails sticky.
CLUSTER_RELIABILITY = ReliabilityConfig(
    retry_timeout=16, max_timeout=256, max_retries=64
)


class ClusterStall(RuntimeError):
    """The cluster stopped making progress: blocked ranks, an idle
    network, and nothing in flight. Carries the per-rank stuck ops."""


# -- cluster workloads ----------------------------------------------------


def _halo(builder: TraceBuilder, rounds: int, size: int) -> None:
    dims = grid_dims(builder.nprocs, 2)
    for step in range(rounds):
        halo_exchange_round(builder, dims, fields=1, tag_base=step % 4, size=size)


def _alltoall(builder: TraceBuilder, rounds: int, size: int) -> None:
    for step in range(rounds):
        alltoall_p2p_round(builder, tag=step % 4, size=size)


def _hotspot(builder: TraceBuilder, rounds: int, size: int) -> None:
    """All ranks send to rank 0: the incast that saturates one host's
    downlink and makes queuing delay visible on every flow."""
    for step in range(rounds):
        clock = builder.begin_round()
        root = builder.ranks[0]
        reqs = [
            root.irecv(src, step % 4, clock.recv(), size=size)
            for src in range(1, builder.nprocs)
        ]
        for src in range(1, builder.nprocs):
            builder.ranks[src].isend(0, step % 4, clock.send(src), size=size)
        root.waitall(reqs, clock.wait())


#: name -> generator(builder, rounds, size); the sweepable apps.
CLUSTER_APPS = {
    "halo": _halo,
    "alltoall": _alltoall,
    "hotspot": _hotspot,
}


def cluster_workload(
    app: str, ranks: int, *, rounds: int = 4, size: int = 512
) -> Trace:
    """Generate the named cluster workload (exact receives only)."""
    generator = CLUSTER_APPS.get(app)
    if generator is None:
        raise KeyError(f"unknown cluster app {app!r}; known: {sorted(CLUSTER_APPS)}")
    builder = TraceBuilder(f"cluster-{app}", ranks)
    generator(builder, rounds, size)
    return builder.build()


# -- the report -----------------------------------------------------------


@dataclass(slots=True)
class ClusterReport:
    """One cluster run's parameters and observables (fleet-codable)."""

    params: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No C2 violation, nothing undelivered, and every audited
        message's wire phase explained by a fabric injection (the one
        that opened it, or a retransmitted copy)."""
        cons = self.results.get("conservation", {})
        return (
            not self.results.get("violations")
            and self.results.get("undelivered", 0) == 0
            and cons.get("checked", 0)
            == cons.get("exact", 0) + cons.get("recovered", 0)
        )

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, "params": self.params, "results": self.results}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClusterReport":
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise ValueError(f"expected {SCHEMA}, got {schema!r}")
        return cls(
            params=dict(payload["params"]), results=dict(payload["results"])
        )


# -- per-rank bookkeeping -------------------------------------------------


@dataclass(slots=True)
class _RecvMeta:
    source: int
    tag: int
    stream_index: int  #: k-th exact receive on (source, tag) at this rank
    wildcard: bool
    request: int  #: trace request id (-1 when none)
    done: bool = False


class _Rank:
    """One rank's stack: matcher, receiver, per-peer senders."""

    def __init__(
        self,
        rank: int,
        ops,
        recorder: FlightRecorder,
        bounce_buffers: int,
        matcher=None,
    ) -> None:
        self.rank = rank
        self.ops = ops
        self.pc = 0
        self.matcher = matcher if matcher is not None else OptimisticMatcher()
        if recorder.enabled and hasattr(self.matcher, "set_recorder"):
            self.matcher.set_recorder(recorder)
        self.receiver = RdmaReceiver(None, self.matcher, recorder=recorder)
        #: NIC staging memory is a per-rank resource shared by all of
        #: the rank's connections.
        self.pool = BounceBufferPool(bounce_buffers)
        self.senders: dict[int, RdmaSender] = {}
        self.next_handle = 0
        self.recvs: dict[int, _RecvMeta] = {}
        self.recv_by_request: dict[int, int] = {}
        #: (source, tag) -> receives posted so far on that stream.
        self.recv_streams: dict[tuple[int, int], int] = {}
        #: (dst, tag) -> messages sent so far on that stream.
        self.send_streams: dict[tuple[int, int], int] = {}
        self.outstanding: set[int] = set()
        self.consumed = 0  #: completed-list prefix already checked
        self.skipped_ops = 0

    @property
    def done(self) -> bool:
        return self.pc >= len(self.ops) and not self.outstanding


class ClusterSim:
    """N ranks, one trace, one shared fabric."""

    def __init__(
        self,
        trace: Trace,
        *,
        topology: str | Topology = "torus",
        placement: str | Placement = "block",
        plan: LinkFaultPlan | None = None,
        latency: int = DEFAULT_LATENCY,
        bandwidth: int = DEFAULT_BANDWIDTH,
        eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
        reliability: ReliabilityConfig | None = None,
        bounce_buffers: int = 256,
        cq_depth: int = 1024,
        record: bool = True,
        matcher_factory=None,
    ) -> None:
        """``matcher_factory``, when given, is called with each rank
        index to build that rank's matcher (e.g. an engine restored
        from a checkpoint) instead of a fresh
        :class:`OptimisticMatcher`."""
        self.trace = trace
        self.nprocs = trace.nprocs
        if isinstance(topology, str):
            topology = topology_by_name(
                topology, self.nprocs, latency=latency, bandwidth=bandwidth
            )
        self.topology = topology
        if isinstance(placement, str):
            placement = placement_by_name(placement, self.nprocs, topology.hosts)
        self.placement = placement
        self.plan = plan
        self.fabric = Fabric(topology, plan=plan)
        self.recorder: FlightRecorder = FlightRecorder() if record else NULL_RECORDER
        # The ledger's clock is the fabric's tick counter, read as an
        # attribute: every stamp of every message asks for it.
        self.recorder.set_clock(partial(getattr, self.fabric, "clock"))
        self.eager_threshold = eager_threshold
        self.reliability = (
            reliability if reliability is not None else CLUSTER_RELIABILITY
        )
        self._cq_depth = cq_depth
        self.ranks = [
            _Rank(
                r,
                trace.rank(r).ops,
                self.recorder,
                bounce_buffers,
                matcher=matcher_factory(r) if matcher_factory is not None else None,
            )
            for r in range(self.nprocs)
        ]
        self.wires: list[ReliableWire] = []
        self.violations: list[dict] = []
        self.sends = 0
        self.deliveries = 0
        self.sampler = NULL_SAMPLER
        for a, b in sorted(self._pairs()):
            self._connect(a, b)

    # -- telemetry --------------------------------------------------------

    def attach_sampler(self, sampler) -> None:
        """Install the cluster's standard timeline probes on ``sampler``
        and start polling it each progress round (on fabric ticks).

        Series: the fabric gauges
        (:func:`repro.net.metrics.install_fabric_probes`) plus
        ``ranks.live`` — the count of ranks still participating, which
        is constant on fault-free runs and steps down exactly when a
        fail-stop subclass deactivates a rank.
        """
        self.sampler = sampler
        if not sampler.enabled:
            return
        install_fabric_probes(sampler, self.fabric)
        sampler.add_probe(
            "ranks.live",
            lambda: float(sum(1 for n in self.ranks if self._rank_active(n))),
        )
        # Deliberately no rc.retransmits probe here: a congested but
        # healthy fabric retransmits legitimately, so that series is
        # only a fault signature on the point-to-point chaos stack.

    def _sample_tick(self) -> float:
        """The sampler's clock (epoch subclasses offset this so ticks
        stay monotone across rebuilds)."""
        return float(self.fabric.clock)

    # -- wiring ----------------------------------------------------------

    def _pairs(self) -> set[tuple[int, int]]:
        """Unordered communicating pairs, derived from the trace."""
        sends = (OpKind.ISEND, OpKind.SEND)
        recvs = (OpKind.IRECV, OpKind.RECV)
        nprocs = self.nprocs
        return {
            (me, op.peer) if me < op.peer else (op.peer, me)
            for rank_trace in self.trace.ranks
            for me in (rank_trace.rank,)
            for op in rank_trace.ops
            if (op.kind in sends and op.peer >= 0)
            or (op.kind in recvs and 0 <= op.peer < nprocs)
        }

    def _connect(self, a: int, b: int) -> None:
        """One RC connection between ranks ``a`` and ``b``."""
        end_a, end_b = f"r{a}|{a}-{b}", f"r{b}|{a}-{b}"
        fabric_wire = FabricWire(
            self.fabric,
            end_a,
            end_b,
            node_a=self.placement.node_of(a),
            node_b=self.placement.node_of(b),
            recorder=self.recorder,
        )
        wire = ReliableWire(
            fabric_wire, config=self.reliability, recorder=self.recorder
        )
        self.wires.append(wire)
        for rank, side, peer in ((a, end_a, b), (b, end_b, a)):
            node = self.ranks[rank]
            qp = QueuePair(
                wire,
                side,
                cq=CompletionQueue(self._cq_depth),
                bounce_pool=node.pool,
                recorder=self.recorder,
            )
            node.receiver.add_qp(qp)
            node.senders[peer] = RdmaSender(
                qp,
                rank,
                eager_threshold=self.eager_threshold,
                recorder=self.recorder,
            )

    # -- op execution ----------------------------------------------------

    def _post_receive(self, node: _Rank, op) -> int:
        wildcard = op.uses_wildcard()
        handle = node.next_handle
        node.next_handle += 1
        stream_index = -1
        if not wildcard:
            key = (op.peer, op.tag)
            stream_index = node.recv_streams.get(key, 0)
            node.recv_streams[key] = stream_index + 1
        node.recvs[handle] = _RecvMeta(
            source=op.peer,
            tag=op.tag,
            stream_index=stream_index,
            wildcard=wildcard,
            request=op.request,
        )
        if op.request >= 0:
            node.recv_by_request[op.request] = handle
        node.outstanding.add(handle)
        node.receiver.post_receive(
            ReceiveRequest(source=op.peer, tag=op.tag, comm=op.comm, handle=handle)
        )
        return handle

    def _send(self, node: _Rank, op) -> None:
        key = (op.peer, op.tag)
        seq = node.send_streams.get(key, 0)
        node.send_streams[key] = seq + 1
        ident = f"{node.rank}>{op.peer}:{op.tag}:{seq}"
        payload = ident.encode().ljust(op.size, b".")  # never shorter than ident
        header = node.senders[op.peer].send(op.tag, payload, comm=op.comm)
        if self.recorder.enabled and header.mid >= 0:
            self.recorder.label(header.mid, ident)
        self.sends += 1

    def _wait_satisfied(self, node: _Rank, op) -> bool:
        if op.kind is OpKind.WAITALL:
            return not node.outstanding
        handle = node.recv_by_request.get(op.request)
        if handle is None:
            return True  # send request: complete at post time
        return node.recvs[handle].done

    def _step_rank(self, node: _Rank) -> bool:
        """Run ``node`` until it blocks; True if any op executed."""
        moved = False
        ops = node.ops
        end = len(ops)
        while node.pc < end:
            op = ops[node.pc]
            kind = op.kind
            if kind is OpKind.IRECV or kind is OpKind.RECV:
                handle = self._post_receive(node, op)
                node.pc += 1
                moved = True
                if kind is OpKind.RECV and not node.recvs[handle].done:
                    break  # blocking receive
            elif kind is OpKind.ISEND or kind is OpKind.SEND:
                self._send(node, op)
                node.pc += 1
                moved = True
            elif kind is OpKind.WAIT or kind is OpKind.WAITALL:
                if not self._wait_satisfied(node, op):
                    break
                node.pc += 1
                moved = True
            else:
                # Collectives / one-sided: outside the p2p substrate.
                node.skipped_ops += 1
                node.pc += 1
                moved = True
        return moved

    # -- completion checking ---------------------------------------------

    def _check_completions(self, node: _Rank) -> int:
        completed = node.receiver.completed
        fresh = len(completed) - node.consumed
        if not fresh:
            return 0
        self.deliveries += fresh
        first, node.consumed = node.consumed, len(completed)
        for delivery in completed[first:]:
            meta = node.recvs.get(delivery.handle)
            if meta is None:
                continue
            meta.done = True
            node.outstanding.discard(delivery.handle)
            if meta.wildcard:
                continue
            expected = (
                f"{meta.source}>{node.rank}:{meta.tag}:{meta.stream_index}"
            )
            actual = delivery.payload.rstrip(b".").decode(errors="replace")
            if actual != expected:
                self.violations.append(
                    {
                        "rank": node.rank,
                        "expected": expected,
                        "actual": actual,
                        "passport": self.recorder.passport(actual),
                    }
                )
        return fresh

    # -- the run loop ----------------------------------------------------

    def _in_flight(self) -> int:
        return sum(wire.in_flight() for wire in self.wires)

    def _pending_reads(self) -> int:
        return sum(
            node.receiver.pending_reads
            for node in self.ranks
            if self._rank_active(node)
        )

    def _rank_active(self, node: _Rank) -> bool:
        """Whether ``node`` still participates (hook for fail-stop
        subclasses: a dead rank is stepped and polled no further)."""
        return True

    def _trace_done(self) -> bool:
        return all(node.done for node in self.ranks if self._rank_active(node))

    def _stuck_ops(self) -> dict[int, str]:
        """The op each unfinished active rank is blocked on."""
        return {
            node.rank: str(node.ops[node.pc].kind)
            for node in self.ranks
            if self._rank_active(node) and not node.done and node.pc < len(node.ops)
        }

    def _progress_round(self) -> bool:
        """One global round: step every active rank to its next block,
        then poll every active receiver. True if anything moved."""
        moved = False
        for node in self.ranks:
            if self._rank_active(node) and self._step_rank(node):
                moved = True
        for node in self.ranks:
            if not self._rank_active(node):
                continue
            node.receiver.progress()
            if self._check_completions(node):
                moved = True
            self._after_rank_progress(node)
        if self.sampler.enabled:
            self.sampler.poll(self._sample_tick())
        return moved

    def _after_rank_progress(self, node: _Rank) -> None:
        """Per-rank-poll hook (resilience pumps heartbeats here so the
        detector's clock granularity is one rank poll, not one global
        round)."""

    def _settle(self, max_rounds: int) -> None:
        """Let the network settle (stray ACKs, duplicate suppression)."""
        settle = 0
        while self._in_flight() > 0 and settle < max_rounds:
            settle += 1
            for node in self.ranks:
                if self._rank_active(node):
                    node.receiver.progress()

    def run(self, *, max_stall_rounds: int = 10_000) -> ClusterReport:
        """Execute the trace to completion and report.

        ``max_stall_rounds`` bounds consecutive no-progress rounds
        (blocked ranks with traffic still in flight are *not* stalled:
        retransmission timers need polls to count down).
        """
        idle = 0
        while not self._trace_done():
            if self._progress_round():
                idle = 0
                continue
            if self._in_flight() == 0 and self._pending_reads() == 0:
                raise ClusterStall(
                    "no progress, nothing in flight; blocked ranks: "
                    f"{self._stuck_ops()}"
                )
            idle += 1
            if idle > max_stall_rounds:
                raise ClusterStall(
                    f"no progress in {max_stall_rounds} rounds with "
                    f"{self._in_flight()} frames in flight"
                )
        self._settle(max_stall_rounds)
        return self.report()

    # -- reporting -------------------------------------------------------

    def conservation(self) -> dict:
        """Per-message wire-phase vs per-hop telescoping audit.

        For every completed recorded message: the wire phase must open
        at some fabric injection and close at that copy's arrival, with
        the hop durations summing exactly to the phase length. Clean
        runs satisfy ``exact == checked``; faulty runs may retransmit,
        where only the delivered copy telescopes (``recovered``).
        """
        columns = self.recorder.columns()
        # Each message's first wire and first staged stamps, by mid.
        wire = [None] * len(columns.tails)
        staged = wire.copy()
        for mid, phase, ts in zip(columns.mids, columns.phases, columns.times):
            if phase == "wire":
                if mid >= 0 and wire[mid] is None:
                    wire[mid] = ts
            elif phase == "staged":
                if mid >= 0 and staged[mid] is None:
                    staged[mid] = ts
        checked = exact = recovered = 0
        for wire_ts, staged_ts in zip(wire, staged):
            if wire_ts is not None and staged_ts is not None:
                checked += 1
        # A message no injection explains is counted in neither
        # ``exact`` nor ``recovered``: ``ClusterReport.ok`` requires the
        # three to add up. The first injection that explains one settles
        # it; the fabric's hop log holds them in injection order.
        settled = [False] * len(wire)
        log = self.fabric.hop_log
        mids, injects, arrivals = log.mids, log.injects, log.arrivals
        dropped, ends, ticks = log.dropped, log.ends, log.ticks
        end = 0
        for row in range(log.rows):
            start, end = end, ends[row]  # the row's boundary ticks
            mid = mids[row]
            if settled[mid]:
                continue
            wire_ts = wire[mid]
            arrival = arrivals[row]
            if dropped[row] or wire_ts is None or arrival != staged[mid]:
                continue
            # Consecutive hops share their boundary tick, so the hop
            # durations sum to the last boundary minus the first.
            inject = injects[row]
            if ticks[end - 1] - ticks[start] == arrival - inject:
                settled[mid] = True
                if inject == wire_ts:
                    exact += 1
                else:
                    recovered += 1  # a retransmitted copy delivered
        return {"checked": checked, "exact": exact, "recovered": recovered}

    def report(self) -> ClusterReport:
        # Phase totals over completed messages, folded straight off the
        # ledger's rows: each row closes the segment its ``prev`` row
        # opened. Rows come in stamp order, not message by message; the
        # sums are the same on the fabric's whole-tick clock.
        columns = self.recorder.columns()
        times, phases = columns.times, columns.phases
        done = [row >= 0 and phases[row] == "complete" for row in columns.tails]
        completed_records = done.count(True)
        totals: dict[str, float] = {}
        for mid, t1, prev in zip(columns.mids, times, columns.prevs):
            if prev < 0 or mid < 0 or not done[mid]:
                continue
            phase = phases[prev]
            if phase in totals:
                totals[phase] += t1 - times[prev]
            else:
                totals[phase] = t1 - times[prev]
        outstanding = sum(len(node.outstanding) for node in self.ranks)
        retransmits = sum(wire.stats.retransmits for wire in self.wires)
        rnr = sum(wire.stats.rnr_naks for wire in self.wires)
        params = {
            "app": self.trace.name,
            "ranks": self.nprocs,
            "topology": self.topology.name,
            "placement": self.placement.scheme,
            "eager_threshold": self.eager_threshold,
            "plan": self.plan.to_params() if self.plan is not None else None,
        }
        results = {
            "sends": self.sends,
            "deliveries": self.deliveries,
            "undelivered": outstanding,
            "violations": self.violations,
            "skipped_ops": sum(node.skipped_ops for node in self.ranks),
            "elapsed_ticks": self.fabric.clock,
            "fabric": {
                "injected": self.fabric.injected,
                "delivered": self.fabric.delivered,
                "dropped": self.fabric.dropped,
                "max_utilization": self.fabric.max_utilization(),
            },
            "transport": {"retransmits": retransmits, "rnr_naks": rnr},
            "links": self.fabric.link_report(),
            "phase_totals": totals,
            "completed_records": completed_records,
            "conservation": self.conservation(),
        }
        return ClusterReport(params=params, results=results)


def run_cluster(
    app: str,
    ranks: int,
    *,
    topology: str = "torus",
    placement: str = "block",
    rounds: int = 4,
    size: int = 512,
    plan: LinkFaultPlan | None = None,
    eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
    record: bool = True,
) -> ClusterReport:
    """Generate a workload and run it: the one-call frontdoor."""
    trace = cluster_workload(app, ranks, rounds=rounds, size=size)
    sim = ClusterSim(
        trace,
        topology=topology,
        placement=placement,
        plan=plan,
        eager_threshold=eager_threshold,
        record=record,
    )
    return sim.run()
