"""The degradation ladder's shared contract, over all four front-ends.

Whatever *decides* a takeover (table full, quarantine, budget), the
round trip engine -> host -> engine is one mechanism
(:mod:`repro.recovery.supervisor`) and must look the same from outside:
one carried ``stats`` object, decision stamps strictly monotone across
both boundaries, posting and arrival order intact (so pairings equal
the serial oracle), and — where a memory meter is attached — accounts
released on takeover and re-charged to the returning set's bytes.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core.config import EngineConfig
from repro.core.descriptor import DESCRIPTOR_BYTES
from repro.core.envelope import ANY_SOURCE, ANY_TAG, MessageEnvelope, ReceiveRequest
from repro.dpa.machine import DpaMachine
from repro.matching.fallback import FallbackMatcher
from repro.matching.list_matcher import ListMatcher
from repro.pressure.budget import UNEXPECTED_HEADER_BYTES, PressureBudget, PressureMeter
from repro.pressure.controller import PressuredPipeline
from repro.recovery.recoverer import RecoveringMatcher

CONFIG = EngineConfig(bins=4, block_threads=4, max_receives=8)


@dataclass
class FrontEnd:
    """One front-end behind the four verbs the scenario needs."""

    subject: object
    post: Callable
    send: Callable
    drain: Callable
    degraded: Callable[[], bool]
    meter: PressureMeter | None = None


def _pipeline(subject, degraded, meter=None) -> FrontEnd:
    return FrontEnd(
        subject, subject.post_receive, subject.submit_message, subject.process_all,
        degraded, meter,
    )


def _fallback() -> FrontEnd:
    matcher = FallbackMatcher(CONFIG, recoverable=True)
    return _pipeline(matcher, lambda: not matcher.offloaded)


def _recovering() -> FrontEnd:
    matcher = RecoveringMatcher(CONFIG)
    return _pipeline(matcher, lambda: matcher.degraded)


def _pressured() -> FrontEnd:
    # Room for the bins, ~8 descriptors and the scenario's unexpected
    # headers: six live receives already sit in the pressured band.
    meter = PressureMeter(PressureBudget(budget_bytes=944))
    pipe = PressuredPipeline(CONFIG, meter)
    return _pipeline(pipe, lambda: not pipe.offloaded, meter)


def _machine() -> FrontEnd:
    # A roomy budget: the trigger here is the descriptor table, the
    # meter only rides along.
    machine = DpaMachine(CONFIG, budget=PressureBudget(budget_bytes=2000))
    return FrontEnd(
        machine, machine.post_receive, machine.deliver, machine.run,
        lambda: machine.degraded, machine.pressure,
    )


FRONT_ENDS = {
    "fallback": _fallback,
    "recovering": _recovering,
    "pressured": _pressured,
    "machine": _machine,
}


@pytest.mark.parametrize("name", FRONT_ENDS)
def test_takeover_reoffload_round_trip(name):
    front = FRONT_ENDS[name]()
    oracle = ListMatcher()
    first_generation = front.subject.engine
    stats = first_generation.stats
    events = []
    want: dict[tuple, int] = {}
    watermarks: list[int] = []
    was_degraded = False
    handle = 0
    seqs: dict[int, int] = {}

    def note(event) -> None:
        if event is not None and event.receive is not None:
            want[event.message.source, event.message.send_seq] = event.receive.handle

    def settle() -> None:
        """Collect what the op produced; on a boundary, everything
        decided so far must be older than everything decided later."""
        nonlocal was_degraded
        events.extend(e for e in front.drain() if e is not None)
        if front.degraded() != was_degraded:
            was_degraded = not was_degraded
            watermarks.append(len(events))

    def post(source: int, tag: int) -> None:
        nonlocal handle
        request = ReceiveRequest(source=source, tag=tag, handle=handle)
        handle += 1
        event = front.post(request)
        if event is not None:
            events.append(event)
        note(oracle.post_receive(request))
        settle()

    def send(source: int, tag: int) -> None:
        seq = seqs.get(source, 0)
        seqs[source] = seq + 1
        msg = MessageEnvelope(source=source, tag=tag, send_seq=seq)
        front.send(msg)
        note(oracle.incoming_message(msg))
        settle()

    # Generation 1: three unexpected messages, six identical receives.
    for _ in range(3):
        send(1, 9)
    for _ in range(6):
        post(0, 7)
    assert not front.degraded()
    # Keep posting until the front-end's own trigger fires.
    for _ in range(12):
        if front.degraded():
            break
        post(0, 7)
    assert front.degraded(), "the takeover trigger never fired"
    if front.meter is not None:
        assert front.meter.accounts["descriptors"] == 0
        assert front.meter.accounts["unexpected"] == 0
    # On the host: match the receives down (posting order decides who
    # gets which message) and drain the oldest unexpected message.
    posted = handle
    post(1, 9)
    for _ in range(posted):
        if not front.degraded():
            break
        send(0, 7)
    assert not front.degraded(), "the re-offload gate never opened"
    if front.meter is not None:
        subject = front.subject
        parked = getattr(subject, "parked_count", 0)
        engine = subject.engine
        assert front.meter.accounts["descriptors"] == (
            DESCRIPTOR_BYTES * engine.posted_receives
        )
        assert front.meter.accounts["unexpected"] == (
            UNEXPECTED_HEADER_BYTES * engine.unexpected_count
        )
        assert engine.unexpected_count + parked == 2
    # Generation 2: what crossed both boundaries still matches in order.
    for _ in range(front.subject.engine.posted_receives):
        send(0, 7)
    post(ANY_SOURCE, ANY_TAG)
    post(ANY_SOURCE, ANY_TAG)
    settle()

    assert len(watermarks) == 2  # one takeover, one re-offload
    assert front.subject.engine is not first_generation
    assert front.subject.engine.stats is stats
    assert stats.fallback_spills == 1 and stats.fallback_recoveries == 1
    assert stats.degraded_matches > 0
    got = {
        (e.message.source, e.message.send_seq): e.receive.handle
        for e in events
        if e.receive is not None
    }
    assert got == want and len(got) == posted + 3
    orders = [e.decision_order for e in events]
    assert len(set(orders)) == len(orders)
    for mark in watermarks:
        assert max(orders[:mark]) < min(orders[mark:])
