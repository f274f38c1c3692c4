"""The object-graph flight recorder, kept verbatim as a reference model.

This is ``repro.obs.ledger.FlightRecorder`` exactly as it stood before
the columnar recorder replaced it: a :class:`MessageRecord` per message
in a ``records`` dict, found by ``records.get(mid)`` on every stamp,
holding a list of ``(ts, phase, detail-or-None)`` tuples whose last
entry the dedupe / post-complete / clamp rules re-read; ``mark`` is a
list length and ``rewind`` a slice deletion; receive rows are dicts
updated in place. It builds an object graph per message and is
therefore slow, but it is the *definition* of the ledger —
``test_recorder_differential.py`` holds the production recorder to it
op by op.

Only the name differs: ``FlightRecorder`` is ``ReferenceRecorder`` here,
and the (unchanged) ``MessageRecord`` and ``LedgerDump`` are imported,
so records and exports compare equal across the two.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.ledger import LedgerDump, MessageRecord

__all__ = ["ReferenceRecorder"]


def _no_clock() -> float:
    """The clock of a recorder nobody gave one: every stamp reads 0."""
    return 0.0


class ReferenceRecorder:
    """Assigns mids, stamps transitions, exports the ledger.

    The recorder is the single source of simulated time for every
    layer it instruments: attach the run's clock with
    :meth:`set_clock` before traffic starts. Without a clock all
    stamps read 0.0 (records still order correctly by insertion).
    """

    #: Class attribute so the disabled check never costs an instance
    #: dict lookup (mirrors ``NullTracer.enabled``).
    enabled = True

    def __init__(self) -> None:
        self._clock: Callable[[], float] = _no_clock
        self._next_mid = 0
        self.records: dict[int, MessageRecord] = {}
        #: Run-level events (host takeover, re-offload, recovery
        #: epochs) that belong to no single message.
        self.events: list[tuple[float, str, dict | None]] = []
        #: Receive-posting ledger rows (the ReceiveRequest side).
        self.receives: list[dict] = []
        self._labels: dict[str, int] = {}
        self._open_receives: dict[int, list[int]] = {}

    # -- clock -----------------------------------------------------------

    def set_clock(self, clock: Callable[[], float] | None) -> None:
        """Point the recorder at the run's simulated clock."""
        self._clock = clock if clock is not None else _no_clock

    def now(self) -> float:
        return float(self._clock())

    # -- message lifecycle ----------------------------------------------

    def new_mid(self) -> int:
        mid = self._next_mid
        self._next_mid += 1
        return mid

    def open(
        self,
        *,
        source: int,
        tag: int,
        size: int = 0,
        protocol: str = "eager",
    ) -> int:
        """Open a record (stamps the ``send`` transition); returns mid."""
        mid = self.new_mid()
        rec = MessageRecord(
            mid, source=source, tag=tag, size=size, protocol=protocol
        )
        rec.transitions.append((float(self._clock()), "send", None))
        self.records[mid] = rec
        return mid

    def stamp(self, mid: int, phase: str, **detail: Any) -> None:
        """Record a phase transition.

        Unknown mids are ignored (a layer may see foreign traffic);
        consecutive identical phases dedupe (double-stamping ``umq``
        from two layers is safe); timestamps are clamped monotone
        within a record so attribution segments never go negative.

        This is the per-packet path of every instrumented layer, so it
        applies those rules itself; :meth:`stamp_at` states them again
        for an explicit timestamp and the two must stay in step.
        """
        rec = self.records.get(mid)
        if rec is None:
            return
        tr = rec.transitions
        if tr:
            last_ts, last_phase, _ = tr[-1]
            if last_phase == phase or last_phase == "complete":
                return
        ts = float(self._clock())  # read once, and only for a stamp that lands
        if tr and ts < last_ts:
            ts = last_ts
        tr.append((ts, phase, detail or None))

    def stamp_at(self, mid: int, phase: str, ts: float, **detail: Any) -> None:
        """Record a phase transition at an explicit timestamp.

        The fabric layer uses this to close a message's wire phase at
        its *true* arrival tick rather than at the (possibly later)
        tick the delivery was polled — the hook that makes per-hop
        wire attribution telescope exactly. Same dedupe / monotone /
        post-complete rules as :meth:`stamp`.
        """
        rec = self.records.get(mid)
        if rec is None:
            return
        ts = float(ts)
        tr = rec.transitions
        if tr:
            last_ts, last_phase, _ = tr[-1]
            if last_phase == phase:
                return
            if last_phase == "complete":
                return
            if ts < last_ts:
                ts = last_ts
        tr.append((ts, phase, detail or None))

    def phase_of(self, mid: int) -> str:
        """The phase ``mid`` currently occupies ("" when unknown)."""
        rec = self.records.get(mid)
        if rec is None or not rec.transitions:
            return ""
        return rec.transitions[-1][1]

    def complete(self, mid: int) -> None:
        self.stamp(mid, "complete")

    def note(self, mid: int, name: str, **detail: Any) -> None:
        """Attach a side-band annotation (never alters the waterfall)."""
        rec = self.records.get(mid)
        if rec is None:
            return
        rec.events.append((float(self._clock()), name, detail or None))

    def mark(self, mid: int) -> int:
        """Transition high-water mark, for speculative block attempts."""
        rec = self.records.get(mid)
        return len(rec.transitions) if rec is not None else 0

    def rewind(self, mid: int, mark: int) -> None:
        """Discard transitions stamped after ``mark`` (a rolled-back
        block attempt's stamps must not pollute the waterfall — the
        replay's stamps are authoritative; the rollback itself is
        recorded as a :meth:`note`)."""
        rec = self.records.get(mid)
        if rec is not None and len(rec.transitions) > mark:
            del rec.transitions[mark:]

    def label(self, mid: int, ident: str) -> None:
        """Bind a human-readable identity (e.g. ``"rank:seq"``)."""
        rec = self.records.get(mid)
        if rec is None:
            return
        rec.label = ident
        self._labels[ident] = mid

    def passport(self, ident: str) -> dict | None:
        """The full lifecycle of the message labeled ``ident``."""
        mid = self._labels.get(ident)
        if mid is None:
            return None
        return self.records[mid].to_dict()

    # -- receive lifecycle ----------------------------------------------

    def open_receive(self, handle: int, *, source: int, tag: int) -> None:
        row = {
            "handle": handle,
            "source": source,
            "tag": tag,
            "posted": float(self._clock()),
            "completed": None,
            "mid": -1,
        }
        self._open_receives.setdefault(handle, []).append(len(self.receives))
        self.receives.append(row)

    def close_receive(self, handle: int, mid: int = -1) -> None:
        stack = self._open_receives.get(handle)
        if not stack:
            return
        row = self.receives[stack.pop(0)]
        row["completed"] = float(self._clock())
        row["mid"] = mid

    # -- run-level events ------------------------------------------------

    def event(self, name: str, **detail: Any) -> None:
        self.events.append((self.now(), name, detail or None))

    # -- export ----------------------------------------------------------

    def export(self, scenario: str = "run") -> "LedgerDump":
        return LedgerDump(
            scenarios={
                scenario: {
                    "records": [r.to_dict() for r in self.records.values()],
                    "events": [
                        [ts, name, detail or {}]
                        for ts, name, detail in self.events
                    ],
                    "receives": list(self.receives),
                }
            }
        )
