"""Per-message flight recorder: the lifecycle ledger (tentpole of the
observability layer's second act).

Every message that enters the offload pipeline is assigned a globally
unique ``mid`` and a :class:`MessageRecord` — an append-only list of
simulated-time *phase transitions* stamped at each layer the message
crosses::

    send -> wire -> staged -> cq -> engine -> matched -> complete
                                  \\-> umq [-> parked -> umq] -> matched
                                               matched -> rdma_read -> complete

Transitions are the conserved currency: a phase's duration is the gap
to the *next* transition, so per-phase durations telescope to exactly
``end - start`` — attribution is conserved by construction, not by
bookkeeping (see :mod:`repro.obs.attribution`). Layers that want to
explain *why* a phase was slow attach :meth:`FlightRecorder.note`
annotations (retransmit rounds, RNR stalls, credit stalls, block
rollbacks, evictions); annotations are side-band events and never
perturb the waterfall.

The recorder owns the run's simulated clock (:meth:`set_clock`): the
chaos harness points it at the reliable wire's tick counter, the DPA
machine at its cycle-derived microsecond clock. Layers below never
need a clock of their own.

:class:`NullRecorder` mirrors the :class:`repro.obs.trace.NullTracer`
contract — ``enabled`` is a class attribute, every method is a no-op,
and the shared :data:`NULL_RECORDER` keeps the disabled path
allocation-free. Hot paths guard with ``if recorder.enabled:``.

A finished run exports a :class:`LedgerDump` (schema
``repro.obs.ledger/v1``) — scenario-keyed, JSON round-trippable, and
registered with the fleet result codec so ledgers flow through the
content-addressed cache like any other result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "PHASES",
    "FlightRecorder",
    "LedgerDump",
    "MessageRecord",
    "NULL_RECORDER",
    "NullRecorder",
]

SCHEMA = "repro.obs.ledger/v1"

#: Canonical phase vocabulary (a transition *into* phase ``p`` opens
#: ``p``; its duration runs until the next transition). ``staged``
#: detail says bounce vs host; ``matched`` detail carries the
#: resolution path (optimistic/fast/slow/serial/host).
PHASES: tuple[str, ...] = (
    "send",  # posted at the sender (record opens here)
    "wire",  # sequenced onto the reliable wire (PSN assigned)
    "staged",  # landed in a bounce buffer / host spill staging
    "cq",  # completion queue entry pushed
    "engine",  # submitted to the matching engine
    "umq",  # stored unexpected (UMQ residency)
    "parked",  # evicted to host under memory pressure
    "matched",  # paired with a receive (detail: resolution path)
    "rdma_read",  # rendezvous one-sided read in flight
    "complete",  # delivery observable by the application
)


class MessageRecord:
    """One message's flight record: monotone phase transitions plus
    side-band annotation events."""

    __slots__ = ("mid", "source", "tag", "size", "protocol", "label",
                 "transitions", "events")

    def __init__(
        self,
        mid: int,
        *,
        source: int = -1,
        tag: int = -1,
        size: int = 0,
        protocol: str = "eager",
        label: str = "",
    ) -> None:
        self.mid = mid
        self.source = source
        self.tag = tag
        self.size = size
        self.protocol = protocol
        self.label = label
        #: [(ts, phase, detail-dict-or-None), ...] — ts non-decreasing.
        self.transitions: list[tuple[float, str, dict | None]] = []
        #: [(ts, name, detail-dict-or-None), ...] — annotations only.
        self.events: list[tuple[float, str, dict | None]] = []

    # -- derived views ---------------------------------------------------

    @property
    def open_ts(self) -> float:
        return self.transitions[0][0]

    @property
    def end_ts(self) -> float:
        return self.transitions[-1][0]

    @property
    def latency(self) -> float:
        return self.end_ts - self.open_ts

    @property
    def completed(self) -> bool:
        return bool(self.transitions) and self.transitions[-1][1] == "complete"

    def fold_phases(self, totals: dict[str, float]) -> None:
        """Add this record's per-phase durations into ``totals``, in
        one pass over the transitions (what a report summing thousands
        of records wants; :meth:`phase_durations` is the same waterfall
        for one record, as its own dict). The record must have opened.

        Each segment goes straight into the running total, so a phase a
        record enters twice is summed in a different order than adding
        per-record dicts would — the same number on a tick clock, whose
        durations are whole."""
        tr = self.transitions
        t0, phase, _ = tr[0]
        for t1, entered, _ in tr[1:]:
            if phase in totals:
                totals[phase] += t1 - t0
            else:
                totals[phase] = t1 - t0
            t0, phase = t1, entered

    def segments(self) -> list[tuple[float, float, str]]:
        """Phase occupancy intervals ``(t0, t1, phase)``.

        Consecutive-transition gaps: segment *i* runs from transition
        *i* to transition *i+1* and is attributed to the phase entered
        at *i*. Durations telescope to exactly ``latency``.
        """
        tr = self.transitions
        return [
            (tr[i][0], tr[i + 1][0], tr[i][1]) for i in range(len(tr) - 1)
        ]

    def phase_durations(self) -> dict[str, float]:
        """Total time attributed to each phase (conserved waterfall)."""
        out: dict[str, float] = {}
        if self.transitions:
            self.fold_phases(out)
        return out

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "mid": self.mid,
            "source": self.source,
            "tag": self.tag,
            "size": self.size,
            "protocol": self.protocol,
            "label": self.label,
            "transitions": [
                [ts, phase, detail or {}] for ts, phase, detail in self.transitions
            ],
            "events": [
                [ts, name, detail or {}] for ts, name, detail in self.events
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MessageRecord":
        rec = cls(
            int(payload["mid"]),
            source=int(payload.get("source", -1)),
            tag=int(payload.get("tag", -1)),
            size=int(payload.get("size", 0)),
            protocol=str(payload.get("protocol", "eager")),
            label=str(payload.get("label", "")),
        )
        rec.transitions = [
            (float(ts), str(phase), dict(detail) or None)
            for ts, phase, detail in payload.get("transitions", ())
        ]
        rec.events = [
            (float(ts), str(name), dict(detail) or None)
            for ts, name, detail in payload.get("events", ())
        ]
        return rec


def _no_clock() -> float:
    """The clock of a recorder nobody gave one: every stamp reads 0."""
    return 0.0


class FlightRecorder:
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


class NullRecorder(FlightRecorder):
    """Disabled recorder: every operation is an allocation-free no-op."""

    enabled = False

    def __init__(self) -> None:  # no per-instance state at all
        pass

    def set_clock(self, clock) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def new_mid(self) -> int:
        return -1

    def open(self, **kwargs: Any) -> int:
        return -1

    def stamp(self, mid: int, phase: str, **detail: Any) -> None:
        pass

    def stamp_at(self, mid: int, phase: str, ts: float, **detail: Any) -> None:
        pass

    def phase_of(self, mid: int) -> str:
        return ""

    def complete(self, mid: int) -> None:
        pass

    def note(self, mid: int, name: str, **detail: Any) -> None:
        pass

    def mark(self, mid: int) -> int:
        return 0

    def rewind(self, mid: int, mark: int) -> None:
        pass

    def label(self, mid: int, ident: str) -> None:
        pass

    def passport(self, ident: str) -> dict | None:
        return None

    def open_receive(self, handle: int, *, source: int, tag: int) -> None:
        pass

    def close_receive(self, handle: int, mid: int = -1) -> None:
        pass

    def event(self, name: str, **detail: Any) -> None:
        pass

    def export(self, scenario: str = "run") -> "LedgerDump":
        return LedgerDump()


#: Shared no-op instance: the default for every ``recorder=`` keyword.
NULL_RECORDER = NullRecorder()


@dataclass(slots=True)
class LedgerDump:
    """Scenario-keyed ledger export (fleet-codec round-trippable)."""

    scenarios: dict[str, dict] = field(default_factory=dict)

    def merge(self, other: "LedgerDump") -> "LedgerDump":
        """Union of scenarios; duplicate keys are suffixed, not lost."""
        merged = dict(self.scenarios)
        for name, payload in other.scenarios.items():
            key = name
            n = 2
            while key in merged:
                key = f"{name}#{n}"
                n += 1
            merged[key] = payload
        return LedgerDump(scenarios=merged)

    def iter_records(
        self, scenario: str | None = None
    ) -> Iterator[tuple[str, MessageRecord]]:
        """Yield ``(scenario, record)`` over (a subset of) the dump."""
        for name, payload in self.scenarios.items():
            if scenario is not None and name != scenario:
                continue
            for rec in payload.get("records", ()):
                yield name, MessageRecord.from_dict(rec)

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, "scenarios": self.scenarios}

    @classmethod
    def from_dict(cls, payload: dict) -> "LedgerDump":
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise ValueError(f"expected {SCHEMA}, got {schema!r}")
        return cls(scenarios=dict(payload["scenarios"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LedgerDump":
        return cls.from_dict(json.loads(text))
