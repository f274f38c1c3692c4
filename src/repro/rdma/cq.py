"""Completion queues.

A completion queue entry (CQE) is generated at the receiver for every
completed RDMA receive (§IV-A) and carries the staged message's
metadata: the envelope header and the bounce buffer holding the data.
CQE order *is* arrival order, which is the precedence order C2 relies
on downstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

__all__ = ["Completion", "CompletionQueue", "CompletionQueueOverflow"]


class CompletionQueueOverflow(Exception):
    """CQE arrived with the queue full — fatal on real hardware."""


@dataclass(frozen=True, slots=True)
class Completion:
    """One completion-queue entry."""

    index: int  #: Global CQE sequence number (arrival stamp).
    opcode: str
    payload: Any


class CompletionQueue:
    """Bounded FIFO of completions with a global sequence counter."""

    def __init__(self, depth: int = 4096) -> None:
        if depth <= 0:
            raise ValueError(f"CQ depth must be positive, got {depth}")
        self.depth = depth
        self._entries: deque[Completion] = deque()
        self._next_index = 0

    def push(self, opcode: str, payload: Any) -> Completion:
        if len(self._entries) >= self.depth:
            raise CompletionQueueOverflow(f"CQ overflow at depth {self.depth}")
        cqe = Completion(self._next_index, opcode, payload)
        self._next_index += 1
        self._entries.append(cqe)
        return cqe

    def poll(self) -> Completion | None:
        """Pop the oldest completion (None when empty)."""
        return self._entries.popleft() if self._entries else None

    def poll_batch(self, limit: int) -> list[Completion]:
        """Pop up to ``limit`` completions in order."""
        entries = self._entries
        if len(entries) <= limit:
            out = list(entries)
            entries.clear()
            return out
        return [entries.popleft() for _ in range(limit)]

    def __len__(self) -> int:
        return len(self._entries)
