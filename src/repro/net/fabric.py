"""The shared fabric: links with occupancy, a global tick clock, and
per-port delivery queues.

The fabric is an *analytic* event-timed network: when a packet is
injected, its whole hop schedule is computed immediately against the
current link occupancy — per hop, the packet waits for the link to
free (``busy_until``), occupies it for its serialization time
(``ceil(size / bandwidth)``, min 1 tick), then propagates for the
link's latency. Contending flows therefore push each other's
``busy_until`` forward and *see* congestion; a flow alone on its
route sees only latency + serialization. Delivery happens when the
fabric clock (advanced one tick per ``deliver`` poll) reaches the
packet's arrival time.

Two invariants matter to everything above:

* **Per-pair FIFO** — a (src, dst) flow always takes the same static
  route (oblivious routing) and every link is FIFO (``busy_until`` is
  monotone), so later packets of a flow never overtake earlier ones.
  That is the C2 precondition the matcher relies on.
* **Hop conservation** — a transfer's hop intervals telescope:
  ``hops[0].t_in == inject``, ``hops[i+1].t_in == hops[i].t_out`` and
  ``arrival == hops[-1].t_out``, so per-hop durations sum *exactly*
  to the end-to-end wire time. The ledger's per-hop wire attribution
  inherits exactness from this, not from bookkeeping.

Besides the data path there is a tiny **control plane** (the
``inject_control`` / ``deliver_control`` pair): a management lane in
the spirit of InfiniBand's VL15 virtual lane, used by the heartbeat
failure detector. Control packets follow the *same static routes* as
data — their delay is the route's per-link latency plus one
serialization tick per hop — but they neither wait for nor advance
``busy_until``, and they are exempt from the link-fault schedule. That
separation is deliberate: it makes the failure detector's latency a
pure function of topology (provably bounded, see
:mod:`repro.resilience.heartbeat`) and guarantees that enabling
heartbeats perturbs no data-path observable.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field

from repro.net.faults import FaultSchedule, LinkFaultPlan
from repro.net.routing import RouteTable
from repro.net.topology import Topology

__all__ = ["Fabric", "Hop", "HopLog", "LinkStats", "Transfer"]


@dataclass(frozen=True, slots=True)
class Hop:
    """One link traversal: enters at ``t_in``, leaves the far end at
    ``t_out`` (= queue wait + serialization + propagation later)."""

    link: str
    t_in: int
    t_out: int

    @property
    def duration(self) -> int:
        return self.t_out - self.t_in


@dataclass(slots=True)
class Transfer:
    """One packet's passage through the fabric.

    The schedule is kept as the fabric computed it: ``route`` is the
    flow's static link sequence (shared by every packet of the flow)
    and ``times`` the tick at each boundary — the packet enters
    ``route[i]`` at ``times[i]`` and leaves its far end at
    ``times[i + 1]``. A dropped packet has fewer boundaries than its
    route has links. :attr:`hops` is that schedule as objects, built
    when somebody asks.
    """

    src: str
    dst: str
    size: int
    inject: int
    route: tuple[str, ...]
    times: list[int]
    arrival: int = 0
    dropped: bool = False
    drop_link: str = ""

    @property
    def hops(self) -> tuple[Hop, ...]:
        times = self.times
        return tuple(
            Hop(link, t_in, t_out)
            for link, t_in, t_out in zip(self.route, times, times[1:])
        )

    def conserved(self) -> bool:
        """The schedule spans exactly inject -> arrival (for a dropped
        packet, inject -> where it stopped). Consecutive hops share
        their boundary tick by construction, so their durations
        telescope to that span."""
        return self.times[0] == self.inject and (
            self.dropped or self.times[-1] == self.arrival
        )


class HopLog:
    """The hop schedules a flight recorder keeps, as typed columns: one
    row per recorded injection, keyed by the message's mid.

    Row ``i`` is message ``mids[i]``, injected at ``injects[i]`` from
    host ``srcs[i]`` to ``dsts[i]`` along ``routes[i]`` (the flow's
    route tuple, shared by all its rows) and delivered at
    ``arrivals[i]``, unless ``dropped[i]``. Its boundary ticks are
    ``ticks[ends[i - 1]:ends[i]]`` (from 0 for row 0), one more than
    the links it crossed: a dropped packet was lost on the next link of
    its route. The ledger's ``fabric_hops`` note points at its row;
    the dict it reads is built by :meth:`detail`, only when asked.
    """

    __slots__ = (
        "rows", "mids", "injects", "arrivals", "dropped", "ends", "ticks",
        "srcs", "dsts", "routes", "_capacity",
    )

    def __init__(self) -> None:
        self.rows = self._capacity = 0
        self.mids = array("q")
        self.injects = array("q")
        self.arrivals = array("q")
        self.dropped = bytearray()
        self.ends = array("q")
        self.ticks = array("q")
        self.srcs: list[str] = []
        self.dsts: list[str] = []
        self.routes: list[tuple[str, ...]] = []

    def keep(self, mid: int, transfer: Transfer) -> int:
        """Copy ``transfer``'s schedule into a new row; returns the row."""
        row = self.rows
        if row == self._capacity:  # double the room
            block = max(row, 256)
            for column in (self.mids, self.injects, self.arrivals, self.ends):
                column.extend(array("q", (0,)) * block)
            self.dropped.extend(bytes(block))
            for column in (self.srcs, self.dsts, self.routes):
                column.extend([None] * block)
            self._capacity += block
        self.rows = row + 1
        ticks = self.ticks
        ticks.extend(transfer.times)
        self.mids[row] = mid
        self.injects[row] = transfer.inject
        self.arrivals[row] = transfer.arrival
        self.dropped[row] = transfer.dropped
        self.ends[row] = len(ticks)
        self.srcs[row] = transfer.src
        self.dsts[row] = transfer.dst
        self.routes[row] = transfer.route
        return row

    def detail(self, row: int) -> dict:
        """Row ``row`` as the ``fabric_hops`` note's detail."""
        times = self.ticks[self.ends[row - 1] if row else 0 : self.ends[row]]
        route = self.routes[row]
        dropped = bool(self.dropped[row])
        return {
            "src": self.srcs[row],
            "dst": self.dsts[row],
            "inject": self.injects[row],
            "arrival": self.arrivals[row],
            "dropped": dropped,
            "drop_link": route[len(times) - 1] if dropped else "",
            "hops": [
                [link, t_in, t_out]
                for link, t_in, t_out in zip(route, times, times[1:])
            ],
        }


@dataclass(slots=True)
class LinkStats:
    """Cumulative per-link accounting (the obs export)."""

    packets: int = 0
    bytes: int = 0
    #: Ticks spent serializing packets onto this link.
    busy_ticks: int = 0
    #: Ticks packets spent queued waiting for the link.
    wait_ticks: int = 0
    #: Worst single-packet queue wait (the queue-depth signal).
    peak_wait: int = 0
    drops: int = 0


@dataclass(slots=True)
class _LinkState:
    name: str
    latency: int
    bandwidth: int
    busy_until: int = 0
    stats: LinkStats = field(default_factory=LinkStats)


class _Flows(dict):
    """``(src, dst) -> (route, its link states)``, resolved on a flow's
    first packet: routes are static, so what a packet needs of its
    route is a function of the connection, not of the packet."""

    __slots__ = ("_routes", "_links")

    def __init__(self, routes: RouteTable, links: dict[str, _LinkState]) -> None:
        self._routes = routes
        self._links = links

    def __missing__(self, flow: tuple[str, str]):
        route = self._routes.path(*flow)
        resolved = self[flow] = (route, tuple(self._links[name] for name in route))
        return resolved


class Fabric:
    """Topology + routes + occupancy + the run's tick clock."""

    def __init__(
        self,
        topology: Topology,
        *,
        routes: RouteTable | None = None,
        plan: LinkFaultPlan | None = None,
    ) -> None:
        self.topology = topology
        self.routes = routes if routes is not None else RouteTable(topology)
        self.schedule: FaultSchedule = (
            plan.compile(topology) if plan is not None else FaultSchedule({})
        )
        #: No window: no link is ever down, and inject never asks.
        self._faulty = not self.schedule.is_clean
        self.clock = 0
        self._links: dict[str, _LinkState] = {
            name: _LinkState(name, link.latency, link.bandwidth)
            for name, link in topology.links.items()
        }
        self._flows = _Flows(self.routes, self._links)
        #: port -> min-heap of (arrival, seq, packet, transfer).
        self._ports: dict[str, list] = {}
        #: control-plane ports (management lane, own heaps/counters).
        self._control_ports: dict[str, list] = {}
        self._seq = 0
        self.injected = 0
        self.delivered = 0
        self.dropped = 0
        self.control_injected = 0
        self.control_delivered = 0
        #: Hop schedules of the injections a flight recorder notes.
        self.hop_log = HopLog()

    def now(self) -> float:
        return float(self.clock)

    def tick(self) -> int:
        self.clock += 1
        return self.clock

    # -- ports -----------------------------------------------------------

    def attach(self, port: str) -> list:
        """Create ``port``; returns its arrival heap.

        The heap holds ``(arrival, seq, packet, transfer)`` for every
        packet in flight toward the port, earliest first. A port's
        owner that polls once per tick (:class:`repro.net.fabricwire.
        FabricWire`) reads the head itself; whoever pops an entry whose
        arrival the clock has reached counts it in ``delivered``, as
        :meth:`deliver` does.
        """
        if port in self._ports:
            raise ValueError(f"duplicate port {port!r}")
        heap = self._ports[port] = []
        return heap

    def pending(self, port: str) -> int:
        """Packets in flight toward (or ready at) ``port``."""
        return len(self._ports[port])

    def next_arrival(self, port: str) -> int | None:
        """Arrival tick of ``port``'s earliest in-flight packet."""
        heap = self._ports[port]
        return heap[0][0] if heap else None

    # -- the datapath ----------------------------------------------------

    def inject(self, src: str, dst: str, port: str, packet, size: int) -> Transfer:
        """Route one packet; returns its (already decided) transfer.

        The packet lands on ``port``'s heap at its computed arrival
        tick unless a down link on the route drops it.
        """
        heap = self._ports[port]
        route, states = self._flows[src, dst]
        t = self.clock
        times = [t]
        transfer = Transfer(src, dst, size, t, route, times)
        self.injected += 1
        faulty = self._faulty
        for state in states:
            stats = state.stats
            if faulty and self.schedule.down(state.name, t):
                stats.drops += 1
                self.dropped += 1
                transfer.dropped = True
                transfer.drop_link = state.name
                break
            start = state.busy_until
            if start < t:
                start = t
            wait = start - t
            ser = -(-size // state.bandwidth)  # ceil
            if ser < 1:
                ser = 1
            state.busy_until = start + ser
            t = start + ser + state.latency
            stats.packets += 1
            stats.bytes += size
            stats.busy_ticks += ser
            stats.wait_ticks += wait
            if wait > stats.peak_wait:
                stats.peak_wait = wait
            times.append(t)
        transfer.arrival = t
        if not transfer.dropped:
            self._seq += 1
            heapq.heappush(heap, (t, self._seq, packet, transfer))
        return transfer

    def deliver(self, port: str):
        """Pop the next arrived ``(packet, transfer)`` at ``port``, or
        ``None`` when nothing has arrived by the current clock."""
        heap = self._ports[port]
        if heap and heap[0][0] <= self.clock:
            _, _, packet, transfer = heapq.heappop(heap)
            self.delivered += 1
            return packet, transfer
        return None

    # -- the control plane (management lane) -----------------------------

    def attach_control(self, port: str) -> None:
        """Attach a control-plane port (separate namespace and heaps)."""
        if port in self._control_ports:
            raise ValueError(f"duplicate control port {port!r}")
        self._control_ports[port] = []

    def control_delay(self, src: str, dst: str) -> int:
        """One-way control-packet delay ``src`` -> ``dst``.

        Per link on the static route: propagation latency plus one
        serialization tick. No queueing — the management lane never
        contends with data traffic.
        """
        return sum(state.latency + 1 for state in self._flows[src, dst][1])

    def max_control_rtt(self, nodes=None) -> int:
        """Worst round-trip control delay over ``nodes`` (default: all
        hosts) — the topology term of the failure-detection bound."""
        hosts = list(nodes) if nodes is not None else list(self.topology.hosts)
        worst = 0
        for a in hosts:
            for b in hosts:
                if a == b:
                    continue
                rtt = self.control_delay(a, b) + self.control_delay(b, a)
                if rtt > worst:
                    worst = rtt
        return worst

    def inject_control(self, src: str, dst: str, port: str, packet) -> int:
        """Send one control packet; returns its arrival tick.

        Control packets bypass link occupancy entirely: they neither
        wait for ``busy_until`` nor advance it, are never dropped by
        the fault schedule, and touch none of the data-path counters —
        so a run with the control plane active is byte-identical on
        every data observable to the same run without it.
        """
        arrival = self.clock + self.control_delay(src, dst)
        self._seq += 1
        heapq.heappush(self._control_ports[port], (arrival, self._seq, packet))
        self.control_injected += 1
        return arrival

    def deliver_control(self, port: str):
        """Pop the next arrived ``(packet, arrival)`` control tuple at
        ``port``, or ``None`` when nothing has arrived yet."""
        heap = self._control_ports[port]
        if heap and heap[0][0] <= self.clock:
            arrival, _, packet = heapq.heappop(heap)
            self.control_delivered += 1
            return packet, arrival
        return None

    # -- reporting -------------------------------------------------------

    def link_stats(self) -> dict[str, LinkStats]:
        return {name: state.stats for name, state in self._links.items()}

    def link_report(self) -> dict[str, dict]:
        """Per-link stats as plain literals, only links that saw use."""
        report = {}
        for name in sorted(self._links):
            stats = self._links[name].stats
            if not stats.packets and not stats.drops:
                continue
            report[name] = {
                "packets": stats.packets,
                "bytes": stats.bytes,
                "busy_ticks": stats.busy_ticks,
                "wait_ticks": stats.wait_ticks,
                "peak_wait": stats.peak_wait,
                "drops": stats.drops,
                "utilization": stats.busy_ticks / self.clock if self.clock else 0.0,
            }
        return report

    def max_utilization(self) -> float:
        if not self.clock:
            return 0.0
        busiest = max(
            (state.stats.busy_ticks for state in self._links.values()), default=0
        )
        return busiest / self.clock
