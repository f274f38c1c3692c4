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
        #: The queued completions, oldest first; the queue pair drains
        #: them in place.
        self.entries: deque[Completion] = deque()
        self._next_index = 0

    def push(self, opcode: str, payload: Any) -> Completion:
        if len(self.entries) >= self.depth:
            raise CompletionQueueOverflow(f"CQ overflow at depth {self.depth}")
        cqe = Completion(self._next_index, opcode, payload)
        self._next_index += 1
        self.entries.append(cqe)
        return cqe

    def poll(self) -> Completion | None:
        """Pop the oldest completion (None when empty)."""
        return self.entries.popleft() if self.entries else None

    def __len__(self) -> int:
        return len(self.entries)
