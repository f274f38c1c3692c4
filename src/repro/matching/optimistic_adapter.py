"""Adapter exposing :class:`OptimisticMatcher` under the serial
:class:`repro.matching.base.Matcher` interface.

The engine is block-based: messages buffer until a block of N is
available (or :meth:`flush` forces a partial block). The adapter is
what lets the oracle and the Table I comparison drive the optimistic
engine through the exact same op stream as the serial baselines.
"""

from __future__ import annotations

from repro.core.config import EngineConfig
from repro.core.engine import OptimisticMatcher
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.events import MatchEvent
from repro.core.threadsim import SchedulePolicy
from repro.matching.base import Matcher

__all__ = ["OptimisticAdapter"]


class OptimisticAdapter(Matcher):
    """Drive the optimistic engine with a serial op stream.

    A block runs as soon as N messages queue up, and any posting of a
    receive first flushes pending messages — this keeps decisions
    identical to a serial matcher's, because a post never observes a
    stale unexpected store.
    """

    name = "optimistic"

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        policy: SchedulePolicy | None = None,
        comm: int = 0,
        observer=None,
        engine_cls: type[OptimisticMatcher] = OptimisticMatcher,
    ) -> None:
        """``engine_cls`` selects the engine implementation — mutation
        tests and the online watchdog lanes pass the deliberately
        broken variants from :mod:`repro.core.faults` here."""
        super().__init__()
        self.engine = engine_cls(config, policy=policy, comm=comm, observer=observer)
        self._emitted: list[MatchEvent] = []

    @property
    def posted_count(self) -> int:
        return self.engine.posted_receives

    @property
    def unexpected_count(self) -> int:
        return self.engine.unexpected_count

    def post_receive(self, request: ReceiveRequest) -> MatchEvent | None:
        self.costs.posts += 1
        # A post is a host->DPA QP command; the DPA drains the
        # completion queue before handling it, so the unexpected
        # store the post sees is up to date.
        self._emitted.extend(self.engine.process_all())
        return self.engine.post_receive(request)

    def incoming_message(self, msg: MessageEnvelope) -> MatchEvent | None:
        self.costs.messages += 1
        self.engine.submit_message(msg)
        if self.engine.pending_messages >= self.engine.config.block_threads:
            self._emitted.extend(self.engine.process_block())
        return None

    def flush(self) -> list[MatchEvent]:
        """Run remaining blocks and return all events emitted since the
        previous flush, in message-arrival order."""
        self._emitted.extend(self.engine.process_all())
        events, self._emitted = self._emitted, []
        return events
