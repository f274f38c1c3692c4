"""Software tag-matching fallback (§III-B, §III-E).

"If the number of posted receives exceeds this capacity, the
application must fall back to software tag matching." This front-end
of the degradation ladder (:mod:`repro.recovery.supervisor`) drives an
optimistic engine through the serial :class:`Matcher` interface: when
the descriptor table overflows (or DPA memory cannot be allocated at
communicator creation, §III-E), the live state — posted receives in
posting order and unexpected messages in arrival order — migrates to
a host-side linked-list matcher and all further traffic is handled
there. Its policy is the takeover trigger (table full) and the gate
back; the migrations themselves are the supervisor's.

Two recovery policies are offered:

* **One-way** (default, the historical behaviour): once the working
  set outgrew the accelerator there is no cheap point at which to
  migrate back, so the matcher stays in software for good.
* **Recoverable** (``recoverable=True``): the sPIN-style degradation
  contract — NIC-resource exhaustion spills to the host *temporarily*.
  Once the software matcher's posted-receive set drains below half the
  descriptor-table capacity (hysteresis against thrash), the live
  state migrates back onto a fresh engine and offloaded matching
  resumes. Spills, recoveries, and software-handled messages are
  counted on the carried :class:`repro.core.stats.EngineStats`
  (``fallback_spills`` / ``fallback_recoveries`` /
  ``degraded_matches``), which survives across migrations so one stats
  object narrates the whole run.

Either way the fallback is loss-free and order-preserving: decision
stamps stay monotone across every migration boundary, so C1/C2 audits
hold across mode switches.
"""

from __future__ import annotations

from repro.core.config import EngineConfig
from repro.core.descriptor import DescriptorTableFull
from repro.core.engine import OptimisticMatcher
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.events import MatchEvent
from repro.core.stats import EngineStats
from repro.core.threadsim import SchedulePolicy
from repro.matching.base import Matcher
from repro.recovery.supervisor import Supervisor

__all__ = ["FallbackMatcher"]


class FallbackMatcher(Matcher):
    """Optimistic engine with automatic software fallback on overflow."""

    name = "optimistic+fallback"

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        policy: SchedulePolicy | None = None,
        comm: int = 0,
        recoverable: bool = False,
        observer=None,
    ) -> None:
        """``observer`` is installed on every engine generation (the
        initial one and each post-recovery engine), so tracing hooks
        survive spill/recovery migrations."""
        super().__init__()
        config = config if config is not None else EngineConfig()
        self._recoverable = recoverable
        self._ladder = Supervisor(config, policy=policy, comm=comm, observer=observer)
        #: One stats object carried across every engine generation.
        self.stats: EngineStats = self._ladder.stats
        self.fallback_events = 0
        #: Migrate back once the software PRQ fits this many receives.
        self._recover_threshold = config.max_receives // 2

    def set_recorder(self, recorder) -> None:
        """Install a flight recorder on every engine generation."""
        self._ladder.set_recorder(recorder)

    @property
    def engine(self) -> OptimisticMatcher:
        """The current engine generation (stale while in software)."""
        return self._ladder.engine

    @property
    def offloaded(self) -> bool:
        """Whether matching is currently running on the (simulated) DPA."""
        return self._ladder.host is None

    @property
    def posted_count(self) -> int:
        return self._ladder.posted_count

    @property
    def unexpected_count(self) -> int:
        return self._ladder.unexpected_count

    def queue_depths(self) -> dict[str, float]:
        return self._ladder.queue_depths()

    def _maybe_recover(self) -> None:
        host = self._ladder.host
        if (
            self._recoverable
            and host is not None
            and host.posted_count <= self._recover_threshold
        ):
            self._ladder.reoffload(reason="descriptor-spill")

    def post_receive(self, request: ReceiveRequest) -> MatchEvent | None:
        self.costs.posts += 1
        self._maybe_recover()
        ladder = self._ladder
        if ladder.host is None:
            # A post is a host->DPA QP command; the DPA drains the
            # completion queue before handling it, so the unexpected
            # store the post sees is up to date (and a takeover below
            # observes a settled engine).
            ladder.events.extend(ladder.engine.process_all())
            try:
                return ladder.engine.post_receive(request)
            except DescriptorTableFull:
                ladder.take_over("descriptor-spill")
                self.fallback_events += 1
        return ladder.host.post_receive(request)

    def incoming_message(self, msg: MessageEnvelope) -> MatchEvent | None:
        self.costs.messages += 1
        self._maybe_recover()
        ladder = self._ladder
        if ladder.host is not None:
            return ladder.host_deliver(msg)
        engine = ladder.engine
        engine.submit_message(msg)
        if engine.pending_messages >= engine.config.block_threads:
            ladder.events.extend(engine.process_block())
        return None

    def flush(self) -> list[MatchEvent]:
        events = self._ladder.drain_events()
        if self._ladder.host is None:
            events.extend(self._ladder.engine.process_all())
        return events

    # -- the pipeline surface RdmaReceiver drives ------------------------

    def submit_message(self, msg: MessageEnvelope) -> None:
        """Like :meth:`incoming_message`, but a host-resolved event is
        held for the next :meth:`process_all`, so the receiver sees one
        event stream whichever side did the matching."""
        event = self.incoming_message(msg)
        if event is not None:
            self._ladder.events.append(event)

    process_all = flush
