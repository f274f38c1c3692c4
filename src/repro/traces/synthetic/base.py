"""Synthetic trace construction framework.

The NERSC DOE mini-app traces are not redistributable, so the
reproduction generates *synthetic* traces whose communication
structure mirrors each application (see
:mod:`repro.traces.synthetic.apps`). The builder produces ordinary
:class:`repro.traces.model.Trace` objects — the analyzer cannot tell
them apart from parsed DUMPI input.

Time model: generators proceed in *rounds*. All ranks pre-post their
round's receives early in the round window, send in the middle, and
progress (wait) at the end — the standard well-behaved MPI pattern
(§II-A: "post all immediate receives before transmitting any
messages"). The analyzer merges ranks by walltime, so these phases
reproduce realistic posted-receive queue depths: within a round, a
rank's PRQ holds all its pre-posted receives until the peers' sends
drain them.

The model is arithmetic. The k-th stamp of a phase in round r is
``(r + offset) + k·ε`` (offsets 0, 0.4, 0.8), plus the sender's jitter
in the send phase; :meth:`RoundClock.stamps` hands out a run of them at
once, and :meth:`RankBuilder.emit` writes one rank's ops for one phase
over a list of ``(peer, tag)`` pairs. The phase bound: a phase's last stamp must fall
before the next phase opens (0.4, 0.8, then the next round at 1.0), or
the analyzer's walltime merge would interleave phases without any
error. ``stamps`` checks this once per call and records the first
phase of the round that overran; :func:`~repro.traces.synthetic.apps.generate`
raises ``ValueError`` for it (``TraceBuilder.check_phases``).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.hashing import mix64
from repro.traces.model import OpKind, RankTrace, Trace, TraceOp

__all__ = ["RECV", "SEND", "WAIT", "RankBuilder", "RoundClock", "TraceBuilder"]

#: The three phases of a round, in order.
RECV, SEND, WAIT = 0, 1, 2
#: Each phase's offset (fractions of one round of virtual time), its
#: window end, and its name in an overrun error.
_OFFSETS = (0.0, 0.4, 0.8)
_ENDS = (0.4, 0.8, 1.0)
_PHASES = ("receive", "send", "wait")


class RankBuilder:
    """Accumulates one rank's operations with request bookkeeping."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.ops: list[TraceOp] = []
        self._next_request = 0
        self._time = 0.0

    def _at(self, time: float) -> float:
        # Walltime within a rank must be nondecreasing even if a
        # pattern emits phases out of order.
        self._time = max(self._time, time)
        return self._time

    def emit(
        self, clock: RoundClock, kind: OpKind, pairs: Sequence[tuple[int, int]], size: int = 8
    ) -> range:
        """This rank's receive (``IRECV``) or send (``ISEND``) phase of
        ``clock``'s round: one op per ``(peer, tag)`` in ``pairs``, at the
        phase's next stamps. Returns the ops' request ids."""
        if kind is OpKind.ISEND:
            return self._write(kind, pairs, clock.stamps(SEND, len(pairs), self.rank), size)
        return self._write(kind, pairs, clock.stamps(RECV, len(pairs)), size)

    def _write(
        self,
        kind: OpKind,
        pairs: Sequence[tuple[int, int]],
        stamps: Sequence[float],
        size: int,
    ) -> range:
        # One TraceOp per op; request ids, the stamp and the
        # nondecreasing-walltime clamp are computed inline.
        first = self._next_request
        time = self._time
        self.ops += [
            TraceOp(kind, peer, tag, 0, size, request, (time := stamp if stamp > time else time))
            for request, ((peer, tag), stamp) in enumerate(zip(pairs, stamps), first)
        ]
        self._time = time
        self._next_request = first + len(stamps)
        return range(first, self._next_request)

    def irecv(self, source: int, tag: int, time: float, size: int = 8) -> int:
        return self._write(OpKind.IRECV, ((source, tag),), (time,), size)[0]

    def isend(self, dest: int, tag: int, time: float, size: int = 8) -> int:
        return self._write(OpKind.ISEND, ((dest, tag),), (time,), size)[0]

    def wait(self, request: int, time: float) -> None:
        self.ops.append(
            TraceOp(kind=OpKind.WAIT, request=request, walltime=self._at(time))
        )

    def waitall(self, requests: Sequence[int], time: float) -> None:
        self.ops.append(
            TraceOp(kind=OpKind.WAITALL, size=len(requests), walltime=self._at(time))
        )

    def collective(self, kind: OpKind, time: float, size: int = 8) -> None:
        self.ops.append(TraceOp(kind=kind, size=size, walltime=self._at(time)))

    def build(self) -> RankTrace:
        return RankTrace(rank=self.rank, ops=self.ops)


class TraceBuilder:
    """Whole-application builder: per-rank builders plus a round clock."""

    def __init__(self, name: str, nprocs: int) -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        self.name = name
        self.nprocs = nprocs
        self.ranks = [RankBuilder(rank) for rank in range(nprocs)]
        self._clocks: list[RoundClock] = []
        self._neighbors: dict[tuple, list[list[int]]] = {}

    def begin_round(self) -> "RoundClock":
        """Open the next time round; returns its phase clock."""
        clock = RoundClock(float(len(self._clocks)))
        self._clocks.append(clock)
        return clock

    def neighbor_table(self, dims: tuple[int, ...], diagonals: bool) -> list[list[int]]:
        """``grid_neighbors(rank, dims, diagonals=...)`` of every rank,
        resolved once per trace for each distinct grid."""
        table = self._neighbors.get((dims, diagonals))
        if table is None:
            from repro.traces.synthetic.patterns import grid_neighbors

            table = self._neighbors[dims, diagonals] = [
                grid_neighbors(rank, dims, diagonals=diagonals) for rank in range(self.nprocs)
            ]
        return table

    def all_collective(self, kind: OpKind, size: int = 8) -> None:
        """Every rank records the same collective in one round."""
        stamps = self.begin_round().stamps(SEND, self.nprocs)
        for rank, stamp in zip(self.ranks, stamps):
            rank.collective(kind, stamp, size=size)

    def check_phases(self) -> None:
        """Raise ``ValueError`` for the first round whose phases overlap."""
        for clock in self._clocks:
            if clock.overrun is not None:
                raise ValueError(
                    f"{self.name}: round {int(clock.base)} overruns its {clock.overrun} "
                    "phase window; the analyzer would merge its phases out of order"
                )

    def build(self) -> Trace:
        return Trace(name=self.name, nprocs=self.nprocs, ranks=[r.build() for r in self.ranks])


class RoundClock:
    """Phase timestamps within one round.

    Successive stamps within a phase nudge time forward by an epsilon so
    per-rank op order is stable under sorting. The send phase applies a
    deterministic per-sender *jitter*: on a real network, messages from
    different senders race and arrive out of posting order (that skew
    is what gives posted-receive queues their depth), but messages from
    one sender on one connection stay ordered (RC FIFO / C2). Jitter is
    therefore constant per (sender, round) — computed once per ``stamps``
    call, which is once per round for a sender whose phase is one emitter
    call — and the intra-sender epsilon keeps each sender's emissions
    ordered.
    """

    _EPS = 1e-6
    _JITTER_SPAN = 0.3

    def __init__(self, base: float) -> None:
        self.base = base
        self._counters = [0, 0, 0]
        #: The first phase whose stamps ran past its window, if any.
        self.overrun: str | None = None

    def stamps(self, phase: int, n: int, sender: int | None = None) -> list[float]:
        """The next ``n`` stamps of ``phase`` (``RECV``, ``SEND`` or
        ``WAIT``), skewed by ``sender``'s jitter when given."""
        if n == 0:
            return []
        k = self._counters[phase]
        self._counters[phase] = k + n
        at = self.base + _OFFSETS[phase]
        jitter = 0.0
        if sender is not None:
            jitter = (
                (mix64(sender * 0x9E3779B1 + int(self.base)) % 1024)
                / 1024.0
                * self._JITTER_SPAN
            )
        eps = self._EPS
        stamps = [at + i * eps + jitter for i in range(k, k + n)]
        if stamps[-1] >= self.base + _ENDS[phase] and self.overrun is None:
            self.overrun = _PHASES[phase]
        return stamps

    def recv(self) -> float:
        """Pre-posting phase timestamp."""
        return self.stamps(RECV, 1)[0]

    def send(self, sender: int | None = None) -> float:
        """Sending phase timestamp, skewed per sender."""
        return self.stamps(SEND, 1, sender)[0]

    def wait(self) -> float:
        """Progress phase timestamp."""
        return self.stamps(WAIT, 1)[0]
