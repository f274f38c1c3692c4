"""Seeded core-fault injection inside the matching engine.

:class:`FaultyWire` injects faults *below* the transport;
:class:`CoreFaultInjector` injects them *inside the accelerator*: it
wraps the per-thread block generators that
:meth:`repro.core.engine.OptimisticMatcher.process_block` runs and,
deterministically from a seed, makes one victim core misbehave
mid-block:

* **fail-stop** — the victim thread raises :class:`CoreFailStop` after
  a seeded number of steps: the core died with its booking half-done.
* **hang** — the victim thread blocks on a condition that never
  becomes true. The stepped executor's liveness check is the watchdog:
  the stall surfaces as a deterministic
  :class:`repro.core.threadsim.DeadlockError`.
* **bit-flip** — a bit in the victim thread's candidate/booking state
  is flipped, then :class:`BitFlipDetected` is raised. This models an
  ECC/parity-*detected* transient: the corruption never escapes the
  block because detection aborts it (undetected flips are a different
  threat model — they would need end-to-end checksums on the match
  state, not a recoverer).

All three faults abort the block before its epilogue runs, so neither
events nor stats escape a faulted attempt; recovery is rollback +
replay (:mod:`repro.recovery.recoverer`).

Determinism mirrors :class:`repro.rdma.faultwire.FaultPlan`: every
draw flows through one :func:`repro.util.rng.make_rng` stream keyed by
``CoreFaultPlan.seed``, and the draw structure per block is fixed
(three rate rolls, then victim selection only when armed), so a (plan,
block-sequence) pair reproduces the same fault schedule bit-for-bit.
At most one fault arms per block attempt, which keeps attribution
unambiguous: whatever error escapes the executor belongs to the armed
fault, and anything *un*-armed is re-raised as a genuine engine bug.
"""

from __future__ import annotations

import enum
from collections.abc import Generator
from dataclasses import dataclass, replace
from typing import Any

from repro.core.threadsim import Yielded
from repro.util.rng import make_rng

__all__ = [
    "BitFlipDetected",
    "CoreFailStop",
    "CoreFault",
    "CoreFaultInjector",
    "CoreFaultKind",
    "CoreFaultPlan",
    "CoreFaultStats",
]


class CoreFaultKind(enum.Enum):
    FAIL_STOP = "fail_stop"
    HANG = "hang"
    BIT_FLIP = "bit_flip"


class CoreFault(RuntimeError):
    """Base of the injected core-fault exceptions.

    Carries the fault's coordinates so the recoverer can quarantine
    the right core and the soak report can attribute the episode.
    """

    kind: CoreFaultKind

    def __init__(self, core: int, thread: int, block: int) -> None:
        super().__init__(
            f"{self.kind.value} on core {core} (thread {thread}, block {block})"
        )
        self.core = core
        self.thread = thread
        self.block = block


class CoreFailStop(CoreFault):
    """The victim core died mid-block (fail-stop model)."""

    kind = CoreFaultKind.FAIL_STOP


class BitFlipDetected(CoreFault):
    """A transient flip in candidate/booking state was detected."""

    kind = CoreFaultKind.BIT_FLIP


@dataclass(frozen=True, slots=True)
class CoreFaultPlan:
    """A composable, seeded schedule of accelerator core faults.

    Rates are per-*block* probabilities, rolled in the order fail-stop
    -> hang -> bit-flip; at most one fault fires per block attempt.
    ``max_steps`` bounds how deep into the victim thread's execution
    the fault strikes (the step offset is drawn uniformly from
    ``[1, max_steps]``; threads that finish earlier fault at their
    final step — the core died right after its useful work).
    """

    seed: int = 0
    fail_stop_rate: float = 0.0
    hang_rate: float = 0.0
    bit_flip_rate: float = 0.0
    max_steps: int = 8

    def __post_init__(self) -> None:
        for name in ("fail_stop_rate", "hang_rate", "bit_flip_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    # -- composition helpers -------------------------------------------

    @classmethod
    def clean(cls, seed: int = 0) -> "CoreFaultPlan":
        """No core faults at all (control arm)."""
        return cls(seed=seed)

    @classmethod
    def storm(
        cls,
        seed: int = 0,
        *,
        fail_stop_rate: float = 0.05,
        hang_rate: float = 0.04,
        bit_flip_rate: float = 0.06,
    ) -> "CoreFaultPlan":
        """Every fault kind at once — the default chaos mix."""
        return cls(
            seed=seed,
            fail_stop_rate=fail_stop_rate,
            hang_rate=hang_rate,
            bit_flip_rate=bit_flip_rate,
        )

    def with_options(self, **changes: Any) -> "CoreFaultPlan":
        return replace(self, **changes)

    @property
    def is_clean(self) -> bool:
        return (
            self.fail_stop_rate == 0.0
            and self.hang_rate == 0.0
            and self.bit_flip_rate == 0.0
        )


@dataclass(slots=True)
class CoreFaultStats:
    """Counts of injected core faults (ground truth for recovery tests)."""

    blocks_seen: int = 0
    fail_stops: int = 0
    hangs: int = 0
    bit_flips: int = 0

    def total_injected(self) -> int:
        return self.fail_stops + self.hangs + self.bit_flips


@dataclass(frozen=True, slots=True)
class ArmedFault:
    """One fault scheduled into the block currently being attempted."""

    kind: CoreFaultKind
    core: int
    thread: int
    block: int
    at_step: int


def _never() -> bool:
    return False


class CoreFaultInjector:
    """Wraps block threads with a seeded fault schedule.

    Installed on an engine via ``engine.fault_injector = injector``;
    :meth:`wrap_block` is called by ``process_block`` after the thread
    generators are built. The injector consults ``active_cores`` (a
    callable, typically bound to a :class:`CoreQuarantine`) so already
    dead cores are never re-victimized, and exposes the armed fault
    via :meth:`take_armed` so the recovery layer can attribute the
    escaping exception.
    """

    def __init__(
        self,
        plan: CoreFaultPlan,
        *,
        active_cores,
    ) -> None:
        self.plan = plan
        self.stats = CoreFaultStats()
        self._active_cores = active_cores
        self._rng = make_rng(plan.seed)
        #: Blocks *attempted* so far (replays advance it too, so the
        #: fault schedule over attempts is deterministic).
        self.block_index = 0
        self._armed: ArmedFault | None = None

    def take_armed(self) -> ArmedFault | None:
        """Pop the fault armed into the last attempt (None = clean).

        The recovery layer calls this on every escaping exception: a
        non-None result owns the error; a None result means the error
        is a genuine engine bug and must propagate.
        """
        armed, self._armed = self._armed, None
        return armed

    def wrap_block(self, ctx, threads):
        """Arm at most one fault into one block attempt's threads."""
        self.block_index += 1
        self.stats.blocks_seen += 1
        self._armed = None
        if self.plan.is_clean or not threads:
            return threads
        # Fixed draw structure: three rate rolls per block, selection
        # draws only when a fault arms. Keeps the stream reproducible.
        rolls = (self._rng.random(), self._rng.random(), self._rng.random())
        kind: CoreFaultKind | None = None
        if rolls[0] < self.plan.fail_stop_rate:
            kind = CoreFaultKind.FAIL_STOP
        elif rolls[1] < self.plan.hang_rate:
            kind = CoreFaultKind.HANG
        elif rolls[2] < self.plan.bit_flip_rate:
            kind = CoreFaultKind.BIT_FLIP
        if kind is None:
            return threads
        active = list(self._active_cores())
        if not active:
            return threads
        core = active[int(self._rng.integers(len(active)))]
        thread = int(self._rng.integers(len(threads)))
        at_step = 1 + int(self._rng.integers(self.plan.max_steps))
        fault = ArmedFault(
            kind=kind,
            core=core,
            thread=thread,
            block=self.block_index,
            at_step=at_step,
        )
        self._armed = fault
        if kind is CoreFaultKind.FAIL_STOP:
            self.stats.fail_stops += 1
        elif kind is CoreFaultKind.HANG:
            self.stats.hangs += 1
        else:
            self.stats.bit_flips += 1
        wrapped = list(threads)
        wrapped[fault.thread] = self._faulty(
            wrapped[fault.thread], ctx, fault
        )
        return wrapped

    def _faulty(
        self, inner: Generator[Yielded, None, None], ctx, fault: ArmedFault
    ) -> Generator[Yielded, None, None]:
        """Run ``inner`` for ``at_step`` steps, then manifest the fault.

        A thread that finishes before the strike point still faults at
        its end: the core died after its work, but before the block's
        epilogue — the block must abort and replay either way, or the
        armed fault would silently vanish from the schedule.

        A ``yield n`` is n steps; a strike inside them yields the steps
        up to it and faults without resuming ``inner``, whose next
        segment n bare yields would not have reached either.
        """

        def gen() -> Generator[Yielded, None, None]:
            steps = 0
            for item in inner:
                if steps >= fault.at_step:
                    break
                taken = item if type(item) is int else 1
                if steps + taken > fault.at_step:
                    yield fault.at_step - steps
                    break
                steps += taken
                yield item
            inner.close()
            if fault.kind is CoreFaultKind.HANG:
                # The stall: block forever on an unsatisfiable
                # condition. The executor's liveness check is the
                # watchdog that detects it (DeadlockError).
                while True:
                    yield _never
            if fault.kind is CoreFaultKind.BIT_FLIP:
                candidate = ctx.candidates[fault.thread]
                if candidate is not None:
                    # Flip this thread's own booking bit — the exact
                    # state word §III-C's conflict detection reads.
                    if candidate.booking.test(fault.thread):
                        candidate.booking.clear(fault.thread)
                    else:
                        candidate.booking.set(fault.thread)
                raise BitFlipDetected(fault.core, fault.thread, fault.block)
            raise CoreFailStop(fault.core, fault.thread, fault.block)

        return gen()
