"""Seeded Fig. 8 scenarios: inputs perturbed through ``Scenario``'s public
``receive``/``message`` hooks only. Imported by the ping-pong workloads
alone, so the other workloads' set-up does not pay for ``repro.bench``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.scenarios import SCENARIOS, SENDER_RANK, Scenario
from repro.core.envelope import MessageEnvelope, ReceiveRequest


@dataclass(frozen=True, slots=True)
class ShuffledArrivals(Scenario):
    """No-conflict scenario whose messages arrive in a seeded permutation
    inside each k-sequence (receives stay posted in tag order)."""

    order: tuple[int, ...] = ()

    def message(self, index: int) -> MessageEnvelope:
        k = len(self.order)
        tag = index - index % k + self.order[index % k]
        return MessageEnvelope(source=SENDER_RANK, tag=tag, send_seq=index)


@dataclass(frozen=True, slots=True)
class ShiftedKey(Scenario):
    """With-conflict scenario on a seeded key: every receive still shares
    one (source, tag), so only the bin it hashes to and the phase of the
    handle numbering inside the receive window move."""

    tag: int = 7
    phase: int = 0

    def receive(self, index: int) -> ReceiveRequest:
        return ReceiveRequest(source=SENDER_RANK, tag=self.tag, handle=index + self.phase)

    def message(self, index: int) -> MessageEnvelope:
        return MessageEnvelope(source=SENDER_RANK, tag=self.tag, send_seq=index)


def _fields(base: Scenario) -> dict:
    return {name: getattr(base, name) for name in Scenario.__dataclass_fields__}


def no_conflict(seed: int, k: int) -> Scenario:
    """Seed 0 is the paper's NC scenario itself."""
    base = SCENARIOS[0]
    if seed == 0:
        return base
    order = list(range(k))
    random.Random(seed).shuffle(order)
    return ShuffledArrivals(**_fields(base), order=tuple(order))


def with_conflict(seed: int, k: int) -> tuple[Scenario, Scenario]:
    """(WC-FP, WC-SP); seed 0 is the paper's pair itself."""
    if seed == 0:
        return SCENARIOS[1], SCENARIOS[2]
    rng = random.Random(seed)
    tag, phase = rng.randrange(1, 1 << 16), rng.randrange(k)
    return tuple(
        ShiftedKey(**_fields(base), tag=tag, phase=phase) for base in SCENARIOS[1:3]
    )
