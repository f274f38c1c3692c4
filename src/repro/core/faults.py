"""Deliberately broken engine variants (fault injection).

Each class plants exactly one protocol bug the paper's design exists
to prevent. Their purpose is *mutation testing*: the validation suite
(oracle cross-checks, C1/C2 audits) must detect every one of them on
adversarial schedules — otherwise the tests would be vacuous. See
``tests/core/test_fault_injection.py``.

These classes are exported for testing and teaching only; never use
them for matching.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.core.conflict import detect_conflict
from repro.core.engine import OptimisticMatcher, _BlockContext
from repro.core.events import ResolutionPath
from repro.core.threadsim import Yielded

__all__ = [
    "MUTANT_ENGINES",
    "NoBarrierEngine",
    "NoBookingEngine",
    "NoConflictDetectionEngine",
    "NoSequenceGuardEngine",
    "engine_by_name",
]


class NoBookingEngine(OptimisticMatcher):
    """BUG: never writes the booking bitmap (§III-C).

    Threads search and remember a candidate but skip
    ``candidate.booking.set(tid)``, so conflict detection — which reads
    that bitmap — sees an empty set and reports no conflict for anyone.
    Two threads whose messages match the same receive both take the
    optimistic path and consume it twice: the engine's double-consume
    assertion (or a pairing divergence from the oracle) flags the bug.
    """

    def _thread(self, ctx: _BlockContext, tid: int) -> Generator[Yielded, None, None]:
        msg = ctx.messages[tid]
        candidate = yield from self._search(ctx.stats, tid, msg, early_skip=False)
        # FAULT: no candidate.booking.set(tid) — the bitmap stays empty.
        ctx.candidates[tid] = candidate
        ctx.barrier.enter(tid)
        yield ctx.barrier.wait_condition(tid)
        conflicted = detect_conflict(candidate, tid)
        ctx.conflict_flags[tid] = conflicted
        ctx.detect.enter(tid)
        yield ctx.detect.wait_condition(tid)
        lower_conflict = any(ctx.conflict_flags[:tid])
        if not conflicted and not lower_conflict:
            if candidate is not None:
                self._consume(ctx, tid, candidate, ResolutionPath.OPTIMISTIC)
                ctx.stats.optimistic_hits += 1
            else:
                yield ctx.resolved.wait_condition(tid)
                self._store_unexpected(ctx, tid, msg)
            ctx.resolved.enter(tid)
            return
        yield ctx.resolved.wait_condition(tid)
        if candidate is not None and candidate.is_live():
            self._consume(ctx, tid, candidate, ResolutionPath.SLOW)
        else:
            rematch = yield from self._search(ctx.stats, tid, msg, early_skip=False)
            if rematch is not None:
                self._consume(ctx, tid, rematch, ResolutionPath.SLOW)
            else:
                self._store_unexpected(ctx, tid, msg)
        ctx.resolved.enter(tid)


class NoBarrierEngine(OptimisticMatcher):
    """BUG: skips the partial barrier (§III-D.1).

    Threads check conflicts before earlier threads have booked, so a
    later message can steal a receive from an earlier one — a C2
    violation under schedules where a later thread runs first.
    """

    def _thread(self, ctx: _BlockContext, tid: int) -> Generator[Yielded, None, None]:
        msg = ctx.messages[tid]
        candidate = yield from self._search(ctx.stats, tid, msg, early_skip=False)
        if candidate is not None:
            candidate.booking.set(tid)
        ctx.candidates[tid] = candidate
        # FAULT: no ctx.barrier wait — conflict detection races ahead.
        conflicted = detect_conflict(candidate, tid)
        ctx.conflict_flags[tid] = conflicted
        if candidate is not None and not conflicted and candidate.is_live():
            self._consume(ctx, tid, candidate, ResolutionPath.OPTIMISTIC)
            ctx.stats.optimistic_hits += 1
        elif candidate is not None:
            yield ctx.resolved.wait_condition(tid)
            if candidate.is_live():
                self._consume(ctx, tid, candidate, ResolutionPath.SLOW)
            else:
                rematch = yield from self._search(ctx.stats, tid, msg, early_skip=False)
                if rematch is not None:
                    self._consume(ctx, tid, rematch, ResolutionPath.SLOW)
                else:
                    self._store_unexpected(ctx, tid, msg)
        else:
            yield ctx.resolved.wait_condition(tid)
            self._store_unexpected(ctx, tid, msg)
        ctx.resolved.enter(tid)


class NoConflictDetectionEngine(OptimisticMatcher):
    """BUG: consumes the optimistic candidate without any detection.

    Two threads that booked the same receive both "consume" it; the
    second consumption trips the engine's internal double-consume
    assertion or corrupts pairings — either way, validation flags it.
    """

    def _thread(self, ctx: _BlockContext, tid: int) -> Generator[Yielded, None, None]:
        msg = ctx.messages[tid]
        candidate = yield from self._search(ctx.stats, tid, msg, early_skip=False)
        if candidate is not None:
            candidate.booking.set(tid)
            ctx.barrier.enter(tid)
            yield ctx.barrier.wait_condition(tid)
            # FAULT: no booking-bitmap check; first resumed thread wins
            # regardless of message arrival order.
            if candidate.is_live():
                self._consume(ctx, tid, candidate, ResolutionPath.OPTIMISTIC)
            else:
                self._store_unexpected(ctx, tid, msg)
        else:
            ctx.barrier.enter(tid)
            yield ctx.resolved.wait_condition(tid)
            self._store_unexpected(ctx, tid, msg)
        ctx.resolved.enter(tid)


def _unguarded_fast_path_target(candidate, thread_id, stats=None):
    """fast_path_target without the sequence-ID check."""
    node = candidate.node
    if node is None:
        return None
    for _ in range(thread_id):
        node = node.next
        if node is None:
            return None
    target = node.payload
    if target is candidate or target.consumed:
        return None
    return target


class NoSequenceGuardEngine(OptimisticMatcher):
    """BUG: the fast path ignores sequence IDs (§III-D.3a).

    The thread shifts ``tid`` positions along the bucket chain even
    across incompatible interleaved receives, violating C1 exactly in
    the A-B-A posting hazard the paper's sequence labels guard against.
    The unguarded shift is installed for whole blocks (module-level
    patch around :meth:`process_block`) so every thread misbehaves
    consistently.
    """

    def process_block(self):
        import repro.core.engine as engine_mod

        saved = engine_mod.fast_path_target
        engine_mod.fast_path_target = _unguarded_fast_path_target
        try:
            return super().process_block()
        finally:
            engine_mod.fast_path_target = saved


#: Name -> mutant class, for config-driven engine selection (the chaos
#: harness's ``engine`` field and the core-fault soak's mutant lanes).
MUTANT_ENGINES: dict[str, type[OptimisticMatcher]] = {
    "no_booking": NoBookingEngine,
    "no_barrier": NoBarrierEngine,
    "no_conflict_detection": NoConflictDetectionEngine,
    "no_sequence_guard": NoSequenceGuardEngine,
}


def engine_by_name(name: str) -> type[OptimisticMatcher]:
    """Resolve an engine class: ``"optimistic"`` or a mutant name."""
    if name == "optimistic":
        return OptimisticMatcher
    try:
        return MUTANT_ENGINES[name]
    except KeyError:
        known = ["optimistic", *sorted(MUTANT_ENGINES)]
        raise KeyError(f"unknown engine {name!r}; known: {known}") from None
