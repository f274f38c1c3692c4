"""Intrusive doubly-linked list with lazy removal.

Hash-table buckets and the double-wildcard list in the matcher are
chained lists of receive descriptors kept in posting order. The paper's
*lazy removal* optimization (§IV-D) marks consumed receives instead of
unlinking them immediately — "threads that successfully acquire a lock
during the removal will proceed to clean up the list, removing also the
marked receives" — so that parallel consumers do not serialize on list
surgery.

The list is intrusive (nodes carry their own links) because a receive
descriptor must be findable and unlinkable in O(1) once matched, and
because a descriptor lives in exactly one index (paper §III-B).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Generic, TypeVar

T = TypeVar("T")

__all__ = ["IntrusiveNode", "IntrusiveList"]


class IntrusiveNode(Generic[T]):
    """A list node owning a payload plus a lazy-removal mark."""

    __slots__ = ("payload", "prev", "next", "marked", "owner")

    def __init__(self, payload: T) -> None:
        self.payload = payload
        self.prev: IntrusiveNode[T] | None = None
        self.next: IntrusiveNode[T] | None = None
        self.marked = False  # consumed, awaiting physical removal
        self.owner: IntrusiveList[T] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IntrusiveNode({self.payload!r}, marked={self.marked})"


class IntrusiveList(Generic[T]):
    """Doubly-linked list in insertion (posting) order.

    Supports eager unlink, lazy marking, and an opportunistic sweep
    that physically removes marked nodes — mirroring the DPA scheme
    where the sweep happens under the bucket's removal lock.
    """

    __slots__ = ("_head", "_tail", "_live", "_marked_count")

    def __init__(self) -> None:
        self._head: IntrusiveNode[T] | None = None
        self._tail: IntrusiveNode[T] | None = None
        self._live = 0
        self._marked_count = 0

    def __len__(self) -> int:
        """Number of live (unmarked) nodes."""
        return self._live

    @property
    def physical_length(self) -> int:
        """Number of nodes physically present, marked ones included."""
        return self._live + self._marked_count

    def is_empty(self) -> bool:
        return self._live == 0

    def append(self, payload: T) -> IntrusiveNode[T]:
        """Append a payload at the tail, preserving posting order."""
        node = IntrusiveNode(payload)
        node.owner = self
        if self._tail is None:
            self._head = self._tail = node
        else:
            node.prev = self._tail
            self._tail.next = node
            self._tail = node
        self._live += 1
        return node

    def unlink(self, node: IntrusiveNode[T]) -> None:
        """Physically remove ``node`` from the list (eager removal)."""
        if node.owner is not self:
            raise ValueError("node does not belong to this list")
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        if node.marked:
            self._marked_count -= 1
        else:
            self._live -= 1
        node.prev = node.next = None
        node.owner = None

    def mark(self, node: IntrusiveNode[T]) -> None:
        """Lazily remove ``node``: mark it consumed, keep it linked."""
        if node.owner is not self:
            raise ValueError("node does not belong to this list")
        if not node.marked:
            node.marked = True
            self._live -= 1
            self._marked_count += 1

    def sweep(self) -> int:
        """Physically remove every marked node; return how many."""
        removed = 0
        node = self._head
        while node is not None:
            nxt = node.next
            if node.marked:
                self.unlink(node)
                removed += 1
            node = nxt
        return removed

    def iter_nodes(self, *, include_marked: bool = False) -> Iterator[IntrusiveNode[T]]:
        """Iterate nodes head-to-tail (posting order).

        Iteration tolerates unlinking of the *current* node mid-loop
        (the next pointer is read before yielding).
        """
        node = self._head
        while node is not None:
            nxt = node.next
            if include_marked or not node.marked:
                yield node
            node = nxt

    def __iter__(self) -> Iterator[T]:
        for node in self.iter_nodes():
            yield node.payload

    @property
    def physical_head(self) -> IntrusiveNode[T] | None:
        """First node physically present, marked or not."""
        return self._head

    def head(self) -> IntrusiveNode[T] | None:
        """First live node, or ``None``."""
        node = self._head
        while node is not None and node.marked:
            node = node.next
        return node

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IntrusiveList(live={self._live}, marked={self._marked_count})"
