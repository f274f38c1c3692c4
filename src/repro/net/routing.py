"""Static routing over a topology.

Routes are computed once (per-source BFS over deterministic sorted
adjacency) and never change during a run — the oblivious routing real
fabrics use for RC traffic, and the property that keeps per-pair
delivery FIFO: every (src, dst) flow always takes the same link
sequence, and each link is a FIFO queue, so a later packet of the
same flow can never overtake an earlier one.

Where several shortest paths exist (every fat-tree up/down pair, the
two directions round a ring's antipode), the tie is broken by a
stable per-(src, dst) hash over the candidate parents — a
deterministic stand-in for ECMP that spreads distinct flows across
the path diversity instead of funnelling them all through one core.
"""

from __future__ import annotations

import zlib

from repro.net.topology import Topology

__all__ = ["RouteTable"]


def _flow_pick(src: str, dst: str, at: str, fanout: int) -> int:
    """Stable ECMP choice for flow (src, dst) at node ``at``."""
    return zlib.crc32(f"{src}|{dst}|{at}".encode()) % fanout


class RouteTable:
    """All-pairs static routes with ECMP-stable tie-breaking."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: src -> {node -> (distance, sorted equal-cost parents)}.
        self._trees: dict[str, dict[str, tuple[int, list[str]]]] = {}
        self._paths: dict[tuple[str, str], tuple[str, ...]] = {}

    def _tree(self, src: str) -> dict[str, tuple[int, list[str]]]:
        tree = self._trees.get(src)
        if tree is not None:
            return tree
        if src not in self.topology:
            raise KeyError(f"unknown node {src!r}")
        tree = {src: (0, [])}
        frontier = [src]
        for node in frontier:  # grows while it is walked: BFS order
            reach = tree[node][0] + 1
            for neighbor in self.topology.neighbors(node):
                if neighbor not in tree:
                    tree[neighbor] = (reach, [node])
                    frontier.append(neighbor)
                elif tree[neighbor][0] == reach:
                    tree[neighbor][1].append(node)
        self._trees[src] = tree
        return tree

    def hops(self, src: str, dst: str) -> int:
        """Link count of the route (0 for src == dst)."""
        return len(self.path(src, dst))

    def path(self, src: str, dst: str) -> tuple[str, ...]:
        """The link-name sequence from ``src`` to ``dst``.

        Raises :class:`KeyError` for unknown nodes and
        :class:`ValueError` when the topology does not connect them.
        """
        if src == dst:
            if src not in self.topology:
                raise KeyError(f"unknown node {src!r}")
            return ()
        cached = self._paths.get((src, dst))
        if cached is not None:
            return cached
        tree = self._tree(src)
        entry = tree.get(dst)
        if entry is None:
            raise ValueError(f"no route {src!r} -> {dst!r}")
        nodes = [dst]
        node = dst
        while node != src:
            parents = tree[node][1]
            node = parents[_flow_pick(src, dst, node, len(parents))]
            nodes.append(node)
        nodes.reverse()
        path = tuple(
            self.topology.link(a, b).name for a, b in zip(nodes, nodes[1:])
        )
        self._paths[(src, dst)] = path
        return path
