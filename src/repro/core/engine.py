"""The Optimistic Tag Matching engine (§III, §IV).

:class:`OptimisticMatcher` is the library's central object. It owns
the four receive indexes, the unexpected-message store, the fixed
descriptor table, and the block pipeline that processes incoming
messages N at a time with simulated parallel threads.

Usage contract (mirrors the DPA deployment in §IV):

* ``post_receive`` models the host sending a post command to the
  accelerator over a QP; it first drains the unexpected store, then
  indexes the receive. Posts are serialized with respect to blocks —
  exactly like QP commands interleaving with completion-queue bursts.
* ``submit_message`` stamps an arrival order onto an incoming message
  (its completion-queue position) and queues it.
* ``process_block`` matches up to N queued messages in one optimistic
  block; ``process_all`` loops until the queue drains.

Every decision is emitted as a :class:`repro.core.events.MatchEvent`,
and the engine guarantees MPI constraints C1 and C2 for any thread
interleaving the scheduler produces (property-tested in
``tests/core/test_constraints.py``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from functools import partial

from repro.core.barrier import PartialBarrier
from repro.core.config import EngineConfig
from repro.core.conflict import detect_conflict, fast_path_eligible, fast_path_target
from repro.core.constants import ANY_SOURCE, ANY_TAG
from repro.core.descriptor import DescriptorTable, ReceiveDescriptor
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.events import MatchEvent, MatchKind, ResolutionPath
from repro.core.hashing import receive_hash
from repro.core.indexes import (
    ReceiveIndexes,
    UnexpectedIndexes,
    UnexpectedMessage,
)
from repro.core.optimistic import search_candidate, skipped_classes
from repro.core.stats import BlockStats, EngineStats
from repro.core.threadsim import SchedulePolicy, SteppedExecutor, Yielded
from repro.obs.probe import probe
from repro.util.counters import MonotonicCounter, SequenceLabeler

__all__ = ["OptimisticMatcher", "HintViolation"]


class HintViolation(ValueError):
    """A posted receive contradicts a declared communicator hint."""


class _BlockContext:
    """Shared state of one optimistic block (the N-thread working set)."""

    __slots__ = (
        "messages",
        "barrier",
        "detect",
        "conflict_flags",
        "resolved",
        "candidates",
        "outcomes",
        "stats",
    )

    def __init__(self, messages: list[MessageEnvelope], width: int) -> None:
        self.messages = messages
        self.barrier = PartialBarrier(width)
        self.detect = PartialBarrier(width)
        self.conflict_flags = [False] * len(messages)
        #: Bit i: thread i settled its message (consumed a receive or
        #: stored the message unexpected).
        self.resolved = PartialBarrier(width)
        self.candidates: list[ReceiveDescriptor | None] = [None] * len(messages)
        #: Per thread, what it decided: ``(kind, receive, post label,
        #: path)``. The block epilogue turns each into the thread's one
        #: :class:`MatchEvent`, stamped with its decision order.
        self.outcomes: list[tuple | None] = [None] * len(messages)
        self.stats = BlockStats(messages=len(messages))

    @property
    def active(self) -> int:
        return len(self.messages)


class OptimisticMatcher:
    """Bin-based optimistic MPI tag matcher (the paper's C1 artifact)."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        policy: SchedulePolicy | None = None,
        comm: int = 0,
        keep_history: bool = False,
        history_limit: int | None = None,
        observer: "Callable[[str, dict], None] | None" = None,
    ) -> None:
        """``observer``, when given, receives ``(event, payload)``
        tuples at decision points ('consume', 'unexpected',
        'block_end') — a debugging/observability hook with zero cost
        when unset. ``history_limit`` bounds the retained per-block
        history when ``keep_history`` is on (soak-safe memory)."""
        self.config = config if config is not None else EngineConfig()
        self.comm = comm
        self.indexes = ReceiveIndexes(self.config.bins, skipped_classes(self.config))
        self.unexpected = UnexpectedIndexes(self.config.bins)
        self.table = DescriptorTable(self.config.max_receives, self.config.block_threads)
        self.stats = EngineStats(keep_history=keep_history, history_limit=history_limit)
        self._executor = SteppedExecutor(policy)
        #: search_candidate bound to this engine's indexes and config
        #: (both fixed for its lifetime).
        self._search = partial(search_candidate, self.indexes, self.config)
        self._post_labels = MonotonicCounter()
        self._sequencer = SequenceLabeler()
        #: Stamps MatchEvent.decision_order in semantic decision order.
        self.decisions = MonotonicCounter()
        self._arrivals = MonotonicCounter()
        self._buffer_tokens = MonotonicCounter()
        self._pending: deque[MessageEnvelope] = deque()
        self._marked_since_sweep = 0
        self._observer = observer
        #: Events produced by host commands that drain the pending
        #: queue internally (e.g. cancel); returned by process_all.
        self._event_backlog: list[MatchEvent] = []
        #: Optional :class:`repro.recovery.faults.CoreFaultInjector`;
        #: when set, each block's threads pass through it so seeded
        #: core faults (fail-stop/hang/bit-flip) can abort the block.
        self.fault_injector = None
        #: Optional :class:`repro.pressure.budget.PressureMeter`; when
        #: set, every descriptor allocation/release and every
        #: unexpected-store insert/remove is charged against the memory
        #: budget (the §III-E enforcement hooks). ``None`` keeps the
        #: historical zero-overhead behaviour.
        self.pressure = None
        #: Optional :class:`repro.obs.ledger.FlightRecorder`; when set,
        #: match resolutions and UMQ residency are stamped onto each
        #: message's flight record. ``None`` keeps the hot path to a
        #: single attribute test (same contract as ``pressure``).
        self.recorder = None

    def set_observer(self, observer: "Callable[[str, dict], None] | None") -> None:
        """Install (or clear) the decision-point observer post hoc —
        the attach point :mod:`repro.obs.hooks` uses."""
        self._observer = observer

    def set_pressure(self, meter) -> None:
        """Install (or clear) the memory-budget meter post hoc — the
        attach point :mod:`repro.pressure` uses. Must be called on an
        empty engine (or one whose state the meter already accounts)."""
        self.pressure = meter

    def set_recorder(self, recorder) -> None:
        """Install (or clear) the flight recorder post hoc — the attach
        point :mod:`repro.obs.ledger` instrumentation uses. Engine
        generations created by fallback/recovery/pressure carriers must
        re-install it on each fresh engine."""
        self.recorder = recorder

    # ------------------------------------------------------------------
    # Host-side operations (QP commands)
    # ------------------------------------------------------------------

    @probe("engine.post_receive")
    def post_receive(self, request: ReceiveRequest) -> MatchEvent | None:
        """Post a receive: drain the unexpected store or index it.

        Returns a drain :class:`MatchEvent` when the receive matched a
        stored unexpected message, ``None`` when the receive was
        indexed to await future messages. Raises
        :class:`repro.core.descriptor.DescriptorTableFull` when the
        fixed table is exhausted (the software-fallback trigger) and
        :class:`HintViolation` when the receive contradicts a
        communicator hint.
        """
        if request.comm != self.comm:
            raise ValueError(
                f"receive for communicator {request.comm} posted to engine for {self.comm}"
            )
        if self.config.assert_no_any_source and request.source == ANY_SOURCE:
            raise HintViolation("mpi_assert_no_any_source was declared")
        if self.config.assert_no_any_tag and request.tag == ANY_TAG:
            raise HintViolation("mpi_assert_no_any_tag was declared")

        self.stats.receives_posted += 1
        # One hash per posting: the word addresses the receive's bucket
        # in the unexpected store and in its own index alike.
        wc = request.wildcard_class()
        word = receive_hash(wc, request.source, request.tag)
        stored = self.unexpected.search_chain(self.unexpected.chain_for(wc, word), request)
        if stored is not None:
            self.unexpected.remove(stored)
            if self.pressure is not None:
                self.pressure.release_unexpected()
            self.stats.receives_matched_from_unexpected += 1
            if self.recorder is not None:
                self.recorder.stamp(stored.envelope.mid, "matched", ("path", "serial"))
            return MatchEvent(
                kind=MatchKind.UNEXPECTED_DRAIN,
                message=stored.envelope,
                receive=request,
                receive_post_label=self._post_labels.next(),
                path=ResolutionPath.SERIAL,
                decision_order=self.decisions.next(),
            )
        if self.pressure is not None:
            # Charge before allocating so a refused charge leaves no
            # half-indexed descriptor behind; undo it if the table is
            # the resource that's actually full.
            self.pressure.charge_descriptor()
        try:
            descr = self.table.allocate(
                request,
                post_label=self._post_labels.next(),
                sequence_id=self._sequencer.label(request.source, request.tag),
            )
        except Exception:
            if self.pressure is not None:
                self.pressure.release_descriptor()
            raise
        self.indexes.insert_at(self.indexes.chain_for(wc, word), descr)
        return None

    def cancel_receive(self, handle: int) -> bool:
        """Cancel a posted receive by its request handle (MPI_Cancel).

        Returns True when a live receive with that handle was found
        and removed, False when none exists (it may already have
        matched — MPI's "cancel either succeeds or the operation
        completes" semantics). Cancellation is a host-side command,
        serialized with blocks like posting; pending messages are
        processed first so a message already in flight wins the race,
        as it would on hardware. Events from that internal processing
        are delivered by the next :meth:`process_all` call.
        """
        # Evaluate process_all first: it rebinds the backlog list.
        drained = self.process_all()
        self._event_backlog.extend(drained)
        for chain in self._all_receive_chains():
            for node in chain.iter_nodes():
                descr: ReceiveDescriptor = node.payload
                if descr.request.handle == handle and descr.is_live():
                    self.indexes.consume(descr, lazy=False)
                    self.table.release(descr)
                    if self.pressure is not None:
                        self.pressure.release_descriptor()
                    self.stats.receives_cancelled += 1
                    return True
        return False

    def _all_receive_chains(self):
        for table in (
            self.indexes.no_wildcard,
            self.indexes.source_wildcard,
            self.indexes.tag_wildcard,
        ):
            yield from table
        yield self.indexes.both_wildcard

    # ------------------------------------------------------------------
    # Message ingestion and block processing
    # ------------------------------------------------------------------

    def submit_message(self, msg: MessageEnvelope) -> None:
        """Queue an incoming message, stamping its arrival order."""
        if msg.comm != self.comm:
            raise ValueError(
                f"message for communicator {msg.comm} submitted to engine for {self.comm}"
            )
        self._pending.append(msg.with_arrival(self._arrivals.next()))

    @property
    def pending_messages(self) -> int:
        return len(self._pending)

    def take_pending(self) -> list[MessageEnvelope]:
        """Remove and return every queued message, in arrival order
        (stamps kept) — for a caller that will match them elsewhere,
        e.g. on the host after a takeover. Leaves the engine settled."""
        pending = list(self._pending)
        self._pending.clear()
        return pending

    @property
    def posted_receives(self) -> int:
        """Live (unmatched) posted receives currently indexed."""
        return self.indexes.total_live()

    @property
    def unexpected_count(self) -> int:
        return len(self.unexpected)

    def queue_depths(self) -> dict[str, float]:
        """Current PRQ/UMQ depth gauges for the timeline sampler.

        ``prq_max_bin``/``umq_max_bin`` are the deepest single hash
        bin of the (source, tag) tables — the Fig. 7 dynamics signal
        a flat total depth can hide.
        """
        prq_bins = self.indexes.no_wildcard.depths()
        umq_bins = self.unexpected.depths()
        return {
            "prq": float(self.posted_receives),
            "umq": float(self.unexpected_count),
            "pending": float(self.pending_messages),
            "prq_max_bin": float(max(prq_bins, default=0)),
            "umq_max_bin": float(max(umq_bins, default=0)),
        }

    @probe("engine.process_block")
    def process_block(self) -> list[MatchEvent]:
        """Match one block of up to N queued messages in parallel."""
        if not self._pending:
            return []
        width = self.config.block_threads
        batch = [self._pending.popleft() for _ in range(min(width, len(self._pending)))]
        ctx = _BlockContext(batch, width)
        proc = self._overtaking_thread if self.config.allow_overtaking else self._thread
        threads = [proc(ctx, tid) for tid in range(len(batch))]
        if self.fault_injector is not None:
            threads = self.fault_injector.wrap_block(ctx, threads)
        run_stats = self._executor.run(threads)
        ctx.stats.wait_polls = run_stats.total_wait_polls()
        ctx.stats.thread_steps = run_stats.steps
        events = self._finish_block(ctx)
        if len(events) != len(batch):  # pragma: no cover - internal invariant
            raise AssertionError("every block thread must produce exactly one outcome")
        return events

    def process_all(self) -> list[MatchEvent]:
        """Drain the whole pending queue, block by block.

        Also delivers any events stashed by host commands (cancel)
        that processed messages internally.
        """
        events, self._event_backlog = self._event_backlog, []
        while self._pending:
            events.extend(self.process_block())
        return events

    # ------------------------------------------------------------------
    # The per-thread block procedure (§III-C/D)
    # ------------------------------------------------------------------

    def _thread(self, ctx: _BlockContext, tid: int) -> Generator[Yielded, None, None]:
        msg = ctx.messages[tid]
        cfg = self.config

        # --- Optimistic matching phase (§III-C) ---
        candidate = yield from self._search(
            ctx.stats, tid, msg, early_skip=cfg.early_booking_check
        )
        if candidate is not None:
            candidate.booking.set(tid)  # tentative booking
            ctx.stats.bookings += 1
        ctx.candidates[tid] = candidate

        # --- Partial barrier (§III-D.1) ---
        ctx.barrier.enter(tid)
        yield ctx.barrier.wait_condition(tid)

        # --- Conflict detection (§III-D.2) ---
        conflicted = detect_conflict(candidate, tid)
        ctx.conflict_flags[tid] = conflicted
        ctx.detect.enter(tid)
        yield ctx.detect.wait_condition(tid)
        lower_conflict = any(ctx.conflict_flags[:tid])
        if conflicted:
            ctx.stats.conflicts += 1

        if not conflicted and not lower_conflict:
            # Optimistic success: nobody below lost anything, so no
            # lower thread will re-match and steal this candidate.
            if candidate is not None:
                self._consume(ctx, tid, candidate, ResolutionPath.OPTIMISTIC)
                ctx.stats.optimistic_hits += 1
            else:
                # Unexpected insertion must follow arrival order, so
                # wait for earlier messages to settle first.
                yield ctx.resolved.wait_condition(tid)
                self._store_unexpected(ctx, tid, msg)
            ctx.resolved.enter(tid)
            return

        # --- Fast path (§III-D.3a) ---
        if conflicted and cfg.enable_fast_path and fast_path_eligible(candidate, ctx.active):
            target = fast_path_target(candidate, tid, ctx.stats)
            if target is not None:
                self._consume(ctx, tid, target, ResolutionPath.FAST)
                ctx.stats.fast_path += 1
                ctx.resolved.enter(tid)
                return

        # --- Slow path (§III-D.3b) ---
        ctx.stats.slow_path += 1
        yield ctx.resolved.wait_condition(tid)
        if candidate is not None and candidate.is_live():
            # Lower threads settled without taking it; since they only
            # ever consume receives, it is still the oldest live match.
            self._consume(ctx, tid, candidate, ResolutionPath.SLOW)
        else:
            rematch = yield from self._search(ctx.stats, tid, msg, early_skip=False)
            if rematch is not None:
                rematch.booking.set(tid)
                ctx.stats.bookings += 1
                self._consume(ctx, tid, rematch, ResolutionPath.SLOW)
            else:
                self._store_unexpected(ctx, tid, msg)
        ctx.resolved.enter(tid)

    def _overtaking_thread(
        self, ctx: _BlockContext, tid: int
    ) -> Generator[Yielded, None, None]:
        """Relaxed procedure under ``mpi_assert_allow_overtaking`` (§VII).

        Matching order constraints are waived, so threads skip the
        barrier and conflict machinery entirely: book-and-consume
        whatever live candidate the search returns, retrying on a
        consumed one. This is the upper bound on extractable
        parallelism the hint enables.
        """
        msg = ctx.messages[tid]
        while True:
            candidate = yield from self._search(
                ctx.stats, tid, msg, early_skip=self.config.early_booking_check
            )
            if candidate is None:
                self._store_unexpected(ctx, tid, msg)
                break
            if candidate.is_live():
                # No yield since the liveness check: book + consume is
                # one atomic scheduler step.
                candidate.booking.set(tid)
                ctx.stats.bookings += 1
                self._consume(ctx, tid, candidate, ResolutionPath.OPTIMISTIC)
                ctx.stats.optimistic_hits += 1
                break
        ctx.resolved.enter(tid)

    # ------------------------------------------------------------------
    # Consumption, unexpected storage, block epilogue
    # ------------------------------------------------------------------

    def _consume(
        self,
        ctx: _BlockContext,
        tid: int,
        descr: ReceiveDescriptor,
        path: ResolutionPath,
    ) -> None:
        if descr.consumed:  # pragma: no cover - internal invariant
            raise AssertionError(
                f"thread {tid} consumed an already-consumed receive "
                f"(label {descr.post_label})"
            )
        self.indexes.consume(descr, lazy=True)
        self._marked_since_sweep += 1
        ctx.outcomes[tid] = (MatchKind.EXPECTED, descr.request, descr.post_label, path)
        self.table.release(descr)
        if self.pressure is not None:
            self.pressure.release_descriptor()
        if self.recorder is not None:
            # ``_value_`` is the member's plain attribute; ``.value``
            # would cost two Python calls through the enum descriptor.
            self.recorder.stamp(
                ctx.messages[tid].mid, "matched", ("path", path._value_, "thread", tid)
            )
        if self._observer is not None:
            self._observer(
                "consume",
                {"thread": tid, "label": descr.post_label, "path": path.value},
            )

    def _store_unexpected(self, ctx: _BlockContext, tid: int, msg: MessageEnvelope) -> None:
        if self.pressure is not None:
            # The RNR probe reserved header room for every admitted
            # message, so this charge always fits in a gated stack.
            self.pressure.charge_unexpected()
        um = UnexpectedMessage(envelope=msg, buffer_token=self._buffer_tokens.next())
        self.unexpected.insert(um)
        ctx.stats.unexpected += 1
        if self.recorder is not None:
            self.recorder.stamp(msg.mid, "umq", ("thread", tid))
        ctx.outcomes[tid] = (MatchKind.STORED_UNEXPECTED, None, None, ResolutionPath.SERIAL)
        if self._observer is not None:
            self._observer(
                "unexpected", {"thread": tid, "source": msg.source, "tag": msg.tag}
            )

    def _finish_block(self, ctx: _BlockContext) -> list[MatchEvent]:
        """Block epilogue: the block's events, sweep policy, stats."""
        # Decisions inside a block are semantically ordered by message
        # arrival (= thread ID), whatever order the scheduler actually
        # resolved them in.
        next_decision = self.decisions.next
        events = [
            MatchEvent(outcome[0], message, outcome[1], outcome[2], outcome[3], next_decision())
            for message, outcome in zip(ctx.messages, ctx.outcomes)
            if outcome is not None
        ]
        if self.config.lazy_removal:
            # Amortized cleanup: sweep only once enough consumed nodes
            # accumulated (they cost extra probe walks until then).
            if self._marked_since_sweep >= 4 * self.config.block_threads:
                ctx.stats.swept = self.indexes.sweep()
                self._marked_since_sweep = 0
        else:
            # Eager cleanup: consumed nodes are unlinked at block end,
            # modelling per-consume removal under the bucket lock.
            ctx.stats.swept = self.indexes.sweep()
            self._marked_since_sweep = 0
        self.stats.absorb(ctx.stats)
        if self._observer is not None:
            self._observer(
                "block_end",
                {
                    "messages": ctx.stats.messages,
                    "conflicts": ctx.stats.conflicts,
                    "fast": ctx.stats.fast_path,
                    "slow": ctx.stats.slow_path,
                    # Executor critical path / total work, for span
                    # durations in the tracing layer.
                    "steps_span": max(ctx.stats.thread_steps, default=0),
                    "steps_total": sum(ctx.stats.thread_steps),
                },
            )
        return events

    # ------------------------------------------------------------------
    # State export (software fallback migration, diagnostics)
    # ------------------------------------------------------------------

    def export_state(
        self,
    ) -> tuple[list[tuple[int, ReceiveRequest]], list[MessageEnvelope]]:
        """Snapshot live state for migration to a software matcher.

        Returns posted receives as ``(post_label, request)`` in posting
        order and unexpected messages in arrival order.
        """
        receives: list[tuple[int, ReceiveRequest]] = []
        for _, chain, _ in (
            ("no", self.indexes.no_wildcard, None),
            ("src", self.indexes.source_wildcard, None),
            ("tag", self.indexes.tag_wildcard, None),
        ):
            for bucket in chain:
                for descr in bucket:
                    receives.append((descr.post_label, descr.request))
        for descr in self.indexes.both_wildcard:
            receives.append((descr.post_label, descr.request))
        receives.sort(key=lambda item: item[0])
        unexpected = sorted(
            (um for um in self.unexpected.both_wildcard),
            key=lambda um: um.envelope.arrival,
        )
        return receives, [um.envelope for um in unexpected]

    def import_state(
        self,
        receives: list[tuple[int, ReceiveRequest]],
        unexpected: list[MessageEnvelope],
    ) -> None:
        """Adopt live state exported from another matcher (fallback
        recovery: the host's working set migrates back onto the DPA
        once it fits again).

        ``receives`` must be in posting order and ``unexpected`` in
        arrival order; both get fresh labels/arrival stamps that
        preserve relative order. No events are emitted — these
        decisions already happened on the source matcher. The two
        inputs are mutually incompatible by the PRQ/UMQ invariant (a
        compatible pair would already have matched), so insertion
        order between them is immaterial.
        """
        if self.posted_receives or self.unexpected_count or self._pending:
            raise ValueError("import_state requires an empty engine")
        if len(receives) > self.table.capacity:
            raise ValueError(
                f"{len(receives)} receives exceed the descriptor table "
                f"capacity {self.table.capacity}"
            )
        for _, request in receives:
            if self.pressure is not None:
                self.pressure.charge_descriptor()
            descr = self.table.allocate(
                request,
                post_label=self._post_labels.next(),
                sequence_id=self._sequencer.label(request.source, request.tag),
            )
            self.indexes.insert(descr)
        for msg in unexpected:
            if self.pressure is not None:
                self.pressure.charge_unexpected()
            self.unexpected.insert(
                UnexpectedMessage(
                    envelope=msg.with_arrival(self._arrivals.next()),
                    buffer_token=self._buffer_tokens.next(),
                )
            )

    def evict_oldest_unexpected(self) -> MessageEnvelope | None:
        """Remove and return the globally oldest unexpected message.

        The pressure controller's eviction primitive: the UMQ header
        leaves the accelerator (its charge is released) and the caller
        parks the envelope in host memory. Arrival stamps are globally
        monotone and this always takes the *oldest* resident entry, so
        host-parked envelopes are strictly older than anything still on
        the accelerator — the property the recall path's search order
        (host store first) relies on. Returns ``None`` when the store
        is empty. Must be called on a settled engine (between blocks).
        """
        oldest: UnexpectedMessage | None = next(iter(self.unexpected.both_wildcard), None)
        if oldest is None:
            return None
        self.unexpected.remove(oldest)
        if self.pressure is not None:
            self.pressure.release_unexpected()
        return oldest.envelope

    def revoke_source(self, source: int) -> int:
        """Dead-peer notification: purge every unexpected message from
        ``source`` (the rank fault-tolerance layer's revoke — a failed
        rank's stale UMQ entries must never match a receive posted
        after its death). A host-side command serialized with blocks
        like cancellation: pending messages are processed first, so a
        message already in flight wins the race as it would on
        hardware; whatever that leaves in the unexpected store is then
        dropped. Returns the number of entries revoked.
        """
        drained = self.process_all()
        self._event_backlog.extend(drained)
        victims = [
            um
            for um in self.unexpected.both_wildcard
            if um.envelope.source == source
        ]
        for um in victims:
            self.unexpected.remove(um)
            if self.pressure is not None:
                self.pressure.release_unexpected()
        return len(victims)
