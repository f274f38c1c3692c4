"""Communication-graph analysis of traces.

The matching behaviour the paper analyzes is downstream of the
application's communication *topology*: how many peers a rank talks
to (its pre-posted window ≈ queue depth), how symmetric the exchange
is, and whether traffic concentrates on hot receivers (the many-to-one
pattern the introduction singles out). This module builds the directed
communication graph of a trace (nodes = ranks, edge weights = message
counts) and derives those structural statistics, connecting each
application's Fig. 7 queue depth to the topology that produces it.
networkx is loaded where a graph is built, not when the module is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.traces.model import OpKind, Trace

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["CommGraphStats", "build_comm_graph", "graph_stats"]


@dataclass(frozen=True, slots=True)
class CommGraphStats:
    """Structural summary of an application's communication graph."""

    nodes: int
    edges: int
    messages: int
    #: Mean / max number of distinct senders per receiver — the
    #: direct driver of pre-posted queue depth.
    mean_in_degree: float
    max_in_degree: int
    #: Fraction of directed edges with a reverse edge (halo exchanges
    #: are symmetric; gathers are not).
    symmetry: float
    #: Messages on the busiest receiver / mean per receiver (hotspot
    #: factor; many-to-one patterns score high).
    hotspot_factor: float
    #: Weakly-connected communicating components.
    components: int

    def is_neighbor_exchange(self) -> bool:
        """Heuristic signature of a halo/stencil app: symmetric,
        bounded-degree, single component."""
        return self.symmetry > 0.9 and self.max_in_degree <= 32


def build_comm_graph(trace: Trace) -> nx.DiGraph:
    """Directed graph: edge (s, d) weighted by messages s -> d."""
    import networkx as nx
    graph = nx.DiGraph()
    graph.add_nodes_from(range(trace.nprocs))
    for rank_trace in trace.ranks:
        for op in rank_trace.ops:
            if op.kind in (OpKind.ISEND, OpKind.SEND):
                if graph.has_edge(rank_trace.rank, op.peer):
                    graph[rank_trace.rank][op.peer]["weight"] += 1
                else:
                    graph.add_edge(rank_trace.rank, op.peer, weight=1)
    return graph


def graph_stats(trace: Trace) -> CommGraphStats:
    """Structural statistics of the trace's communication graph."""
    import networkx as nx
    graph = build_comm_graph(trace)
    messages = sum(weight for _, _, weight in graph.edges(data="weight"))
    in_degrees = [degree for _, degree in graph.in_degree()]
    receivers = [node for node in graph.nodes if graph.in_degree(node) > 0]
    in_weights = {
        node: sum(data["weight"] for _, _, data in graph.in_edges(node, data=True))
        for node in receivers
    }
    if graph.number_of_edges():
        reciprocal = sum(
            1 for s, d in graph.edges if graph.has_edge(d, s)
        )
        symmetry = reciprocal / graph.number_of_edges()
    else:
        symmetry = 1.0
    if in_weights:
        mean_weight = sum(in_weights.values()) / len(in_weights)
        hotspot = max(in_weights.values()) / mean_weight if mean_weight else 0.0
    else:
        hotspot = 0.0
    return CommGraphStats(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        messages=messages,
        mean_in_degree=sum(in_degrees) / len(in_degrees) if in_degrees else 0.0,
        max_in_degree=max(in_degrees, default=0),
        symmetry=symmetry,
        hotspot_factor=hotspot,
        components=nx.number_weakly_connected_components(graph),
    )
