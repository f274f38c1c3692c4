"""The pressure controller: policy over the meter's books.

:class:`PressuredPipeline` duck-types the matcher interface that
:class:`repro.rdma.protocol.RdmaReceiver` drives (``post_receive`` /
``submit_message`` / ``process_all``) around a bare
:class:`repro.core.engine.OptimisticMatcher`, and layers the four
graceful-degradation responses of §III-E enforcement on top:

* **Admission control** — a post that must *allocate* a descriptor is
  deferred to a FIFO queue while the meter is pressured (or the
  descriptor would not fit); posts that *drain* an unexpected message
  are always admitted, because draining only releases memory. The
  queue is strictly FIFO — once anything is deferred, every later post
  queues behind it — which is what makes deferral pairing-invariant:
  posts keep their relative order, messages keep arrival order, and a
  deferred post drains exactly the (oldest compatible) message it
  would have been matched with live.
* **Eviction / recall** — under pressure, the globally oldest
  unexpected entries migrate to a host-side parked store (their staged
  bounce payloads spill to host memory through the PR-1
  ``host_data`` path), and are recalled on demand when a compatible
  receive arrives. Because eviction always takes the oldest resident
  entry, everything parked is strictly older than everything still on
  the accelerator — so the post path searches the parked store
  *first* and C2 (oldest-match) holds across evictions.
* **Escalation / re-offload** — sustained pressure (or an allocating
  post that cannot fit even after eviction) forces a full software
  takeover; once the software working set drains below half the
  descriptor table *and* occupancy is out of the pressured band, the
  state migrates back onto a fresh engine.

The policy — when to defer, evict, escalate and return — lives here;
the migrations and the parked store are the shared mechanism of
:class:`repro.recovery.supervisor.Supervisor`.

With an unlimited budget every gate is a constant-time no-op on the
exact pre-existing call sequence: same engine calls, same blocks, same
cycle costs, same pairings (asserted byte-for-byte in
``tests/pressure``).
"""

from __future__ import annotations

from collections import deque

from repro.core.config import EngineConfig
from repro.core.descriptor import DESCRIPTOR_BYTES
from repro.core.engine import OptimisticMatcher
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.events import MatchEvent
from repro.core.indexes import SearchProbeCount
from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.pressure.budget import PressureMeter, UNEXPECTED_HEADER_BYTES
from repro.recovery.supervisor import Supervisor

__all__ = ["PressuredPipeline"]


class PressuredPipeline:
    """Budget-enforcing matcher pipeline for the receive stack."""

    def __init__(
        self,
        config: EngineConfig,
        meter: PressureMeter,
        *,
        comm: int = 0,
        observer=None,
        engine_cls: type[OptimisticMatcher] = OptimisticMatcher,
        recorder: FlightRecorder = NULL_RECORDER,
    ) -> None:
        self.meter = meter
        self._ladder = Supervisor(
            config,
            engine_cls=engine_cls,
            comm=comm,
            observer=observer,
            meter=meter,
            recorder=recorder,
        )
        meter.charge_bins(config.bins)
        #: One stats object carried across every engine generation.
        self.stats = self._ladder.stats
        #: Admission-deferred posts, strict FIFO.
        self._deferred: deque[ReceiveRequest] = deque()
        self._receiver = None
        self._strikes = 0
        self._recover_threshold = config.max_receives // 2

    # -- wiring --------------------------------------------------------

    def bind_transport(self, receiver) -> None:
        """Attach the :class:`RdmaReceiver` whose staged payloads the
        eviction path spills to host memory (and whose CQ backlog the
        admission gate reserves headroom for)."""
        self._receiver = receiver

    def should_demote(self, size: int) -> bool:
        """The sender-side demotion probe: rendezvous while pressured."""
        if self.meter.under_pressure:
            self.meter.stats.demotions += 1
            return True
        return False

    # -- introspection -------------------------------------------------

    @property
    def engine(self) -> OptimisticMatcher:
        """The current engine generation (stale while escalated)."""
        return self._ladder.engine

    @property
    def offloaded(self) -> bool:
        return self._ladder.host is None

    @property
    def parked_count(self) -> int:
        return len(self._ladder.parked)

    @property
    def deferred_count(self) -> int:
        return len(self._deferred)

    @property
    def unexpected_count(self) -> int:
        return self._ladder.unexpected_count + len(self._ladder.parked)

    def queue_depths(self) -> dict[str, float]:
        return self._ladder.queue_depths()

    # -- the matcher interface the RdmaReceiver drives -----------------

    def post_receive(self, request: ReceiveRequest) -> MatchEvent | None:
        # Settle buffered messages first (a post is a host->DPA QP
        # command; the DPA drains the completion queue before handling
        # it) so every drain check below sees current state.
        self._ladder.events.extend(self._flush_inner())
        parked = self._ladder.search_parked(request)
        if parked is not None:
            return self._ladder.recall(request, parked)
        if self._ladder.host is not None:
            event = self._ladder.host.post_receive(request)
            self._maybe_reoffload()
            return event
        # Strict FIFO: nothing may overtake a deferred post, or a later
        # compatible post could steal its message.
        if not self._deferred and self._admissible(request):
            return self.engine.post_receive(request)
        self._deferred.append(request)
        self.meter.stats.posts_deferred += 1
        return None

    def submit_message(self, msg: MessageEnvelope) -> None:
        if self._ladder.host is not None:
            self._ladder.events.append(self._ladder.host_deliver(msg))
            return
        self.engine.submit_message(msg)

    def process_all(self) -> list[MatchEvent]:
        events = self._ladder.drain_events()
        events.extend(self._flush_inner())
        if self._ladder.host is None:
            # Proactive relief: shed cold unexpected state on every
            # progress round, not just when a post is waiting —
            # otherwise a pressured receiver with nothing to admit
            # would RNR-refuse the wire forever.
            self._relieve()
            if (
                self.meter.headroom() < self._wire_reserve()
                and self.engine.unexpected_count == 0
            ):
                # Even an empty unexpected store cannot make room for
                # one message: live descriptors own the budget. Only a
                # full host takeover (which moves the working set — and
                # message staging — into host memory) restores flow.
                self._escalate()
        events.extend(self._pump_admission())
        self._maybe_reoffload()
        return events

    def drain_deferred(self) -> None:
        """End-of-run fence: force the deferred queue empty, escalating
        to the host if eviction alone cannot make room. Resulting drain
        events surface from the next ``process_all``."""
        self._ladder.events.extend(self._flush_inner())
        while self._deferred:
            self._ladder.events.extend(self._pump_admission())
            if self._deferred and self._ladder.host is None:
                self._escalate()

    # -- admission -----------------------------------------------------

    def _fits_post(self) -> bool:
        """Would one more descriptor fit, leaving enough headroom for
        the unexpected-store headers of messages already staged in the
        completion queue (admitted by the RNR probe on the strength of
        headroom that existed before this post)?"""
        reserve = 0
        if self._receiver is not None:
            reserve = UNEXPECTED_HEADER_BYTES * len(self._receiver.qp.cq)
        return self.meter.would_fit(DESCRIPTOR_BYTES + reserve)

    def _pump_admission(self) -> list[MatchEvent]:
        events: list[MatchEvent] = []
        while True:
            progressed = self._admit_ready(events)
            if not self._deferred:
                self._strikes = 0
                return events
            if progressed:
                self._strikes = 0
            if self._ladder.host is None:
                if not self._fits_post() and self.engine.unexpected_count == 0:
                    # Nothing left to evict and the descriptor still
                    # cannot fit: the budget simply cannot hold this
                    # working set. Escalate now.
                    self._escalate()
                    continue
                self._strikes += 1
                if self._strikes >= self.meter.budget.sustained_threshold:
                    self._escalate()
                    continue
            return events

    def _admissible(self, request: ReceiveRequest) -> bool:
        """May this post go to the engine now? One that drains an
        unexpected message always may (draining only releases memory);
        one that allocates needs room outside the pressured band."""
        if self.engine.unexpected.search(request, SearchProbeCount()) is not None:
            return True
        if self.meter.under_pressure:
            self._relieve()
        return not self.meter.under_pressure and self._fits_post()

    def _admit_ready(self, events: list[MatchEvent]) -> bool:
        """Admit deferred posts head-first while the head is admissible.
        Returns whether any post was admitted."""
        progressed = False
        while self._deferred:
            request = self._deferred[0]
            parked = self._ladder.search_parked(request)
            if parked is not None:
                event = self._ladder.recall(request, parked)
            elif self._ladder.host is not None:
                event = self._ladder.host.post_receive(request)
            elif self._admissible(request):
                event = self.engine.post_receive(request)
            else:
                break
            self._deferred.popleft()
            if event is not None:
                events.append(event)
            progressed = True
        return progressed

    # -- eviction / recall ---------------------------------------------

    def _wire_reserve(self) -> int:
        """Bytes the RNR probe needs free to admit one payload-bearing
        message (header + bounce buffer). Zero with no transport bound."""
        if self._receiver is None:
            return 0
        return UNEXPECTED_HEADER_BYTES + self._receiver.qp.bounce_pool.buffer_bytes

    def _relieve(self) -> None:
        """Evict cold (oldest) unexpected entries until occupancy falls
        out of the pressured band — and, with a transport bound, until
        the wire can admit at least one more payload-bearing message
        (charged can sit just *below* the high watermark while the RNR
        probe refuses everything; that stuck band must drain too)."""
        reserve = self._wire_reserve()
        while self.engine.unexpected_count and (
            self.meter.under_pressure or self.meter.headroom() < reserve
        ):
            if not self._evict_one():  # pragma: no cover - count guards
                break

    def _evict_one(self) -> bool:
        envelope = self._ladder.evict_oldest()
        if envelope is None:
            return False
        if self._receiver is not None:
            # Eviction frees the payload bytes too, not just the header.
            self._receiver.spill_staged(envelope.send_seq)
        return True

    # -- escalation / re-offload ---------------------------------------

    def _flush_inner(self) -> list[MatchEvent]:
        if self._ladder.host is not None:
            return []  # the host matcher is serial: nothing buffered
        return self.engine.process_all()

    def _escalate(self) -> None:
        """Sustained pressure: the host adopts the whole working set
        (same migration as the capacity-overflow fallback)."""
        self._ladder.take_over("pressure")
        if self._receiver is not None:
            # The host owns matching now, so inbound staging is host
            # memory, not DPA memory: detach the meter from the bounce
            # pool (re-attached, and re-charged, on re-offload).
            self._receiver.qp.bounce_pool.pressure = None
            self.meter.release_all("bounce")
        self._strikes = 0

    def _maybe_reoffload(self) -> None:
        host = self._ladder.host
        if host is None:
            return
        if host.posted_count > self._recover_threshold:
            return
        if self.meter.under_pressure:
            return
        pool = self._receiver.qp.bounce_pool if self._receiver is not None else None
        staging = pool.in_use * pool.buffer_bytes if pool is not None else 0
        need = (
            host.posted_count * DESCRIPTOR_BYTES
            + host.unexpected_count * UNEXPECTED_HEADER_BYTES
            + staging
            + self._wire_reserve()
        )
        if not self.meter.would_fit(need):
            return
        if pool is not None:
            # Staging moves back onto the accelerator: re-attach the
            # meter and re-charge buffers still held.
            pool.pressure = self.meter
            if staging:
                self.meter.charge("bounce", staging)
        self._ladder.reoffload(reason="pressure")
