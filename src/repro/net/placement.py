"""Rank → node placement maps.

A :class:`Placement` decides which host each MPI rank lives on. On a
shared fabric that choice *is* the communication cost: block placement
keeps halo neighbors on adjacent hosts (short routes, little
contention); round-robin scatters them (every exchange crosses the
network and neighbors contend for the same uplinks).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["Placement", "PLACEMENT_SCHEMES", "placement_by_name"]


class Placement:
    """An immutable rank → host-node map."""

    def __init__(self, mapping: Mapping[int, str], *, scheme: str = "custom") -> None:
        if not mapping:
            raise ValueError("placement must map at least one rank")
        ranks = sorted(mapping)
        if ranks != list(range(len(ranks))):
            raise ValueError(f"ranks must be dense 0..n-1, got {ranks}")
        self.scheme = scheme
        self._nodes = tuple(mapping[r] for r in ranks)
        self._by_node: dict[str, tuple[int, ...]] = {}
        for rank, node in enumerate(self._nodes):
            self._by_node[node] = self._by_node.get(node, ()) + (rank,)

    @property
    def ranks(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> tuple[str, ...]:
        """Node of each rank, indexed by rank."""
        return self._nodes

    def node_of(self, rank: int) -> str:
        return self._nodes[rank]

    def ranks_on(self, node: str) -> tuple[int, ...]:
        return self._by_node.get(node, ())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Placement) and self._nodes == other._nodes

    def __hash__(self) -> int:
        return hash(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Placement({self.scheme!r}, ranks={self.ranks})"

    # -- constructors ----------------------------------------------------

    @classmethod
    def block(cls, ranks: int, hosts: Sequence[str]) -> "Placement":
        """Consecutive ranks share a host (the mpirun default)."""
        _check(ranks, hosts)
        per_host = -(-ranks // len(hosts))
        return cls(
            {r: hosts[r // per_host] for r in range(ranks)}, scheme="block"
        )

    @classmethod
    def round_robin(cls, ranks: int, hosts: Sequence[str]) -> "Placement":
        """Rank r on host r mod n (cyclic / scatter placement)."""
        _check(ranks, hosts)
        return cls(
            {r: hosts[r % len(hosts)] for r in range(ranks)}, scheme="round_robin"
        )

    @classmethod
    def custom(
        cls, mapping: Mapping[int, str], *, scheme: str = "custom"
    ) -> "Placement":
        return cls(mapping, scheme=scheme)

    # -- fleet-param round-trip ------------------------------------------

    def to_params(self) -> dict:
        return {"scheme": self.scheme, "nodes": list(self._nodes)}

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "Placement":
        nodes = params["nodes"]
        return cls(
            {rank: node for rank, node in enumerate(nodes)},
            scheme=str(params.get("scheme", "custom")),
        )


def _check(ranks: int, hosts: Sequence[str]) -> None:
    if ranks < 1:
        raise ValueError(f"need >= 1 rank, got {ranks}")
    if not hosts:
        raise ValueError("need >= 1 host")


#: name -> constructor(ranks, hosts); the sweepable baseline schemes.
PLACEMENT_SCHEMES = {
    "block": Placement.block,
    "round_robin": Placement.round_robin,
}


def placement_by_name(name: str, ranks: int, hosts: Sequence[str]) -> Placement:
    builder = PLACEMENT_SCHEMES.get(name)
    if builder is None:
        raise KeyError(
            f"unknown placement {name!r}; known: {sorted(PLACEMENT_SCHEMES)}"
        )
    return builder(ranks, hosts)
