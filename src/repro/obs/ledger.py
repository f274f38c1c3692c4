"""Per-message flight recorder: the lifecycle ledger (tentpole of the
observability layer's second act).

Every message that enters the offload pipeline is assigned a globally
unique ``mid`` and a lifecycle record — an append-only sequence of
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
annotations (retransmit rounds, RNR stalls, block rollbacks,
evictions); annotations are side-band events and never
perturb the waterfall.

**Columns while the run is on, records at export.** A stamp is on the
per-packet path of every layer, so the recorder keeps numbers in typed
columns (``array("q")`` / ``array("d")``) and names in lists of shared
strings, and builds no object per message or per transition. Per-mid
columns indexed by mid (mids are dense, ``0..n-1``) hold what a record
opened with, its label and the rows of its last transition and last
note; a transition is one row across five columns (mid, ts, phase,
``prev`` — the row of the same mid's previous transition — and
detail); a note is one row across six (mid, ts, name, detail, ``ref``,
``prev``); a receive posting or completion is one row of the receive
log. A detail is the flat tuple the layer built at the call site,
``("path", "fast", "thread", 3)`` — the only object a stamp may leave
behind — or, for a note, a source that keeps the detail itself and
builds it on read (the fabric's hop log, for ``fabric_hops``). Every
group of columns is allocated a block at a time, so a stamp is index
stores. The unknown-mid test is ``0 <= mid < n`` (a foreign -1 never
indexes from the end); the dedupe / post-complete / clamp rules read
the record's last row; ``rewind`` walks ``prev`` back and blanks the
rows it drops. A layer crossing is one recorder call: ``open`` writes
its ``send`` row, the fabric arrival's ``stamp_at`` checks by itself
that the record is still in ``wire``, ``stamp_staged`` writes the queue
pair's ``staged`` and ``cq`` rows and ``complete(mid, handle)`` the
``complete`` row and the receive's completion row, each under the
rules of ``stamp``. :class:`MessageRecord` and every dict are the read
model, built only by ``export``, ``passport`` (one record), the
``records`` snapshot and ``receives``; a whole-run fold
(``ClusterSim.report``) reads :meth:`FlightRecorder.columns`.

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
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple

__all__ = [
    "PHASES",
    "FlightRecorder",
    "LedgerColumns",
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
        for t0, t1, phase in self.segments():
            if phase in out:
                out[phase] += t1 - t0
            else:
                out[phase] = t1 - t0
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


#: A ``tails`` / ``prevs`` entry that is no row: a record with no live
#: transition, a mid's first transition, or room not yet handed out.
NO_ROW = -1


def _flat(fields: dict) -> tuple | None:
    """Keyword detail as the flat ``(key, value, key, value, ...)``
    tuple the ledger stores (``None`` for no detail)."""
    return tuple(item for pair in fields.items() for item in pair) or None


def _as_dict(detail: tuple | None) -> dict | None:
    """A stored flat detail as the dict the read model carries."""
    return dict(zip(detail[::2], detail[1::2])) if detail else None


def _note_dict(detail: Any, ref: int) -> dict | None:
    """A stored note detail as a dict: a flat detail, or (``ref`` of 0
    or more) one its source keeps and builds on request."""
    return detail.detail(ref) if ref >= 0 else _as_dict(detail)


def _extend(block: int, *columns: tuple[Any, Any]) -> None:
    """Add ``block`` entries of room to each ``(column, fill)``."""
    for column, fill in columns:
        unit = array(column.typecode, (fill,)) if isinstance(column, array) else [fill]
        column.extend(unit * block)


class LedgerColumns(NamedTuple):
    """The recorder's own columns, for a one-pass fold: read only.

    Transition row ``i`` is ``mids[i]``, ``times[i]``, ``phases[i]``,
    ``prevs[i]`` (the mid's previous live row, or ``NO_ROW``) and
    ``details[i]`` (a flat detail or ``None``), in stamp order; a
    rewound row, like the preallocated room past the last one, has mid
    ``NO_ROW``. Note row ``j`` is ``note_mids[j]``, ``note_times[j]``,
    ``note_names[j]`` and its detail, which :meth:`note_detail` builds;
    room past the last note has mid ``NO_ROW`` too. ``tails[mid]`` is
    the mid's last live row, or ``NO_ROW`` (which unassigned room reads
    as too).
    """

    tails: array
    mids: array
    times: array
    phases: list[str]
    prevs: array
    details: list[tuple | None]
    note_mids: array
    note_times: array
    note_names: list[str]
    note_details: list[Any]
    note_refs: array

    def note_detail(self, row: int) -> dict | None:
        """Note row ``row``'s detail as a dict."""
        return _note_dict(self.note_details[row], self.note_refs[row])


class FlightRecorder:
    """Assigns mids, stamps transitions, exports the ledger.

    The recorder is the single source of simulated time for every
    layer it instruments: attach the run's clock with
    :meth:`set_clock` before traffic starts. Without a clock all
    stamps read 0.0 (records still order correctly by insertion).

    A layer attaches detail to a stamp or a note as one flat tuple,
    ``("path", "fast", "thread", 3)``, built at the call site (a
    constant one when the values are); keyword detail,
    ``stamp(mid, "matched", path="fast")``, is stored the same way.
    """

    #: Class attribute so the disabled check never costs an instance
    #: dict lookup (mirrors ``NullTracer.enabled``).
    enabled = True

    def __init__(self) -> None:
        self._clock: Callable[[], float] = _no_clock
        #: Run-level events (host takeover, re-offload, recovery
        #: epochs) that belong to no single message.
        self.events: list[tuple[float, str, dict | None]] = []
        # Every group of columns is allocated a block at a time (the
        # ``_grow_*`` methods): writing a row is index stores.
        # Per mid: what a record opened with, its label, and the rows
        # of its last transition and last note.
        self._next_mid = self._mid_capacity = 0
        self._tails = array("q")
        self._note_tails = array("q")
        self._sources = array("q")
        self._tags = array("q")
        self._sizes = array("q")
        self._protocols: list[str] = []
        self._label_of: list[str] = []
        # Per transition.
        self._nrows = self._row_capacity = 0
        self._mids = array("q")
        self._times = array("d")
        self._phases: list[str] = []
        self._prevs = array("q")
        self._details: list[tuple | None] = []
        # Per note; ``_note_refs`` is -1 unless the detail is a source
        # that builds it on request.
        self._nnotes = self._note_capacity = 0
        self._note_mids = array("q")
        self._note_times = array("d")
        self._note_names: list[str] = []
        self._note_details: list[Any] = []
        self._note_refs = array("q")
        self._note_prevs = array("q")
        self._labels: dict[str, int] = {}
        # The receive log, in call order: a posting is (handle, source,
        # tag, ts) with ``_recv_posts`` 1, a completion (handle, mid, ts)
        # with 0.
        self._nrecvs = self._recv_capacity = 0
        self._recv_posts = bytearray()
        self._recv_handles = array("q")
        self._recv_source_or_mid = array("q")
        self._recv_tags = array("q")
        self._recv_times = array("d")

    # -- clock -----------------------------------------------------------

    def set_clock(self, clock: Callable[[], float] | None) -> None:
        """Point the recorder at the run's simulated clock."""
        self._clock = clock if clock is not None else _no_clock

    def now(self) -> float:
        return float(self._clock())

    # -- room ------------------------------------------------------------
    # Doubling, so a column is reallocated O(log n) times. Room reads as
    # a mid with no transition, a rewound row, and no note. The run keeps
    # no object per row for the collector to count.

    def _grow_mids(self) -> None:
        block = max(self._mid_capacity, 256)
        _extend(
            block,
            (self._tails, NO_ROW), (self._note_tails, NO_ROW),
            (self._sources, 0), (self._tags, 0), (self._sizes, 0),
            (self._protocols, ""), (self._label_of, ""),
        )
        self._mid_capacity += block

    def _grow_rows(self) -> None:
        block = max(self._row_capacity, 1024)
        _extend(
            block,
            (self._mids, NO_ROW), (self._times, 0.0), (self._phases, ""),
            (self._prevs, NO_ROW), (self._details, None),
        )
        self._row_capacity += block

    def _grow_notes(self) -> None:
        block = max(self._note_capacity, 256)
        _extend(
            block,
            (self._note_mids, NO_ROW), (self._note_times, 0.0),
            (self._note_names, ""), (self._note_details, None),
            (self._note_refs, NO_ROW), (self._note_prevs, NO_ROW),
        )
        self._note_capacity += block

    def _grow_recvs(self) -> None:
        block = max(self._recv_capacity, 256)
        _extend(
            block,
            (self._recv_posts, 0), (self._recv_handles, 0),
            (self._recv_source_or_mid, 0), (self._recv_tags, 0),
            (self._recv_times, 0.0),
        )
        self._recv_capacity += block

    # -- message lifecycle ----------------------------------------------

    def open(
        self,
        *,
        source: int,
        tag: int,
        size: int = 0,
        protocol: str = "eager",
    ) -> int:
        """Open a record (stamps the ``send`` transition); returns mid."""
        mid = self._next_mid
        if mid == self._mid_capacity:
            self._grow_mids()
        self._next_mid = mid + 1
        self._sources[mid] = source
        self._tags[mid] = tag
        self._sizes[mid] = size
        self._protocols[mid] = protocol
        row = self._nrows
        if row == self._row_capacity:
            self._grow_rows()
        self._nrows = row + 1
        self._mids[row] = mid
        self._times[row] = self._clock()
        self._phases[row] = "send"
        self._prevs[row] = NO_ROW
        self._details[row] = None
        self._tails[mid] = row
        return mid

    def stamp(
        self, mid: int, phase: str, detail: tuple | None = None, /, **fields: Any
    ) -> None:
        """Record a phase transition.

        Unknown mids are ignored (a layer may see foreign traffic);
        consecutive identical phases dedupe (double-stamping ``umq``
        from two layers is safe); timestamps are clamped monotone
        within a record so attribution segments never go negative.

        The verbs that stand for several stamps (:meth:`open`,
        :meth:`stamp_at`, :meth:`stamp_staged`, :meth:`complete`) write
        their rows themselves under these same rules, so a layer
        crossing is one call; the recorder differential test holds each
        to the primitive sequence it replaced.
        """
        if not 0 <= mid < self._next_mid:  # never index from the end
            return
        prev = self._tails[mid]
        if prev >= 0:
            last_phase = self._phases[prev]
            if last_phase == phase or last_phase == "complete":
                return
            ts = self._clock()  # read once, and only for a stamp that lands
            if ts < self._times[prev]:
                ts = self._times[prev]
        else:
            ts = self._clock()
        row = self._nrows
        if row == self._row_capacity:
            self._grow_rows()
        self._nrows = row + 1
        self._mids[row] = mid
        self._times[row] = ts
        self._phases[row] = phase
        self._prevs[row] = prev
        self._details[row] = _flat(fields) if fields else detail
        self._tails[mid] = row

    def stamp_at(
        self,
        mid: int,
        phase: str,
        ts: float,
        detail: tuple | None = None,
        /,
        **fields: Any,
    ) -> None:
        """Record a phase transition at an explicit timestamp.

        The fabric layer uses this to close a message's wire phase at
        its *true* arrival tick rather than at the (possibly later)
        tick the delivery was polled — the hook that makes per-hop
        wire attribution telescope exactly. Same dedupe / monotone /
        post-complete rules as :meth:`stamp`; and a ``staged`` stamp,
        the arrival, lands only while the record is still in ``wire``,
        so a duplicate or a stale retransmitted copy that arrives after
        the record moved on stamps nothing.
        """
        if not 0 <= mid < self._next_mid:
            return
        prev = self._tails[mid]
        last_phase = self._phases[prev] if prev >= 0 else None
        if (
            last_phase == phase
            or last_phase == "complete"
            or (phase == "staged" and last_phase != "wire")
        ):
            return
        if prev >= 0 and ts < self._times[prev]:
            ts = self._times[prev]
        row = self._nrows
        if row == self._row_capacity:
            self._grow_rows()
        self._nrows = row + 1
        self._mids[row] = mid
        self._times[row] = ts
        self._phases[row] = phase
        self._prevs[row] = prev
        self._details[row] = _flat(fields) if fields else detail
        self._tails[mid] = row

    def stamp_staged(self, mid: int, detail: tuple | None) -> None:
        """The queue pair's staging in one call: ``stamp(mid, "staged",
        detail)`` then ``stamp(mid, "cq")``. Over a fabric the arrival
        has stamped ``staged`` already, and only ``cq`` lands."""
        if not 0 <= mid < self._next_mid:
            return
        prev = self._tails[mid]
        rows = (("staged", detail), ("cq", None))
        if prev >= 0:
            last_phase = self._phases[prev]
            if last_phase == "complete":
                return
            if last_phase == "staged":
                rows = rows[1:]
            ts = self._clock()
            if ts < self._times[prev]:
                ts = self._times[prev]
        else:
            ts = self._clock()
        for phase, row_detail in rows:
            row = self._nrows
            if row == self._row_capacity:
                self._grow_rows()
            self._nrows = row + 1
            self._mids[row] = mid
            self._times[row] = ts
            self._phases[row] = phase
            self._prevs[row] = prev
            self._details[row] = row_detail
            self._tails[mid] = prev = row

    def complete(self, mid: int, handle: int | None = None) -> None:
        """Stamp ``complete`` and, given the receive ``handle`` the
        message was delivered to, close that receive in the receive log
        (its completion row, whatever ``mid`` is): a delivery in one call."""
        now = self._clock()
        prev = self._tails[mid] if 0 <= mid < self._next_mid else None
        if prev is not None and (prev < 0 or self._phases[prev] != "complete"):
            row = self._nrows
            if row == self._row_capacity:
                self._grow_rows()
            self._nrows = row + 1
            self._mids[row] = mid
            self._times[row] = (
                self._times[prev] if prev >= 0 and now < self._times[prev] else now
            )
            self._phases[row] = "complete"
            self._prevs[row] = prev
            self._details[row] = None
            self._tails[mid] = row
        if handle is not None:
            row = self._nrecvs
            if row == self._recv_capacity:
                self._grow_recvs()
            self._nrecvs = row + 1
            self._recv_handles[row] = handle  # room reads as a completion
            self._recv_source_or_mid[row] = mid
            self._recv_times[row] = now

    def note(
        self,
        mid: int,
        name: str,
        detail: Any = None,
        ref: int = NO_ROW,
        /,
        **fields: Any,
    ) -> None:
        """Attach a side-band annotation (never alters the waterfall).

        ``detail`` is a flat detail; or, with a ``ref`` of 0 or more, a
        source that keeps the detail itself and builds it on read as
        ``detail.detail(ref)`` (the fabric's hop log does)."""
        if not 0 <= mid < self._next_mid:
            return
        row = self._nnotes
        if row == self._note_capacity:
            self._grow_notes()
        self._nnotes = row + 1
        self._note_mids[row] = mid
        self._note_times[row] = self._clock()
        self._note_names[row] = name
        self._note_details[row] = _flat(fields) if fields else detail
        self._note_refs[row] = ref
        self._note_prevs[row] = self._note_tails[mid]
        self._note_tails[mid] = row

    def mark(self, mid: int) -> int:
        """Transition high-water mark, for speculative block attempts:
        the record's live transition count."""
        count = 0
        if 0 <= mid < self._next_mid:
            prevs = self._prevs
            row = self._tails[mid]
            while row >= 0:
                count += 1
                row = prevs[row]
        return count

    def rewind(self, mid: int, mark: int) -> None:
        """Discard transitions stamped after ``mark`` (a rolled-back
        block attempt's stamps must not pollute the waterfall — the
        replay's stamps are authoritative; the rollback itself is
        recorded as a :meth:`note`)."""
        count = self.mark(mid)
        if mark < 0:  # a slice bound, as ``del transitions[mark:]`` reads it
            mark = max(count + mark, 0)
        if count <= mark:
            return
        row = self._tails[mid]
        for _ in range(count - mark):
            self._mids[row] = NO_ROW
            self._details[row] = None
            row = self._prevs[row]
        self._tails[mid] = row

    def label(self, mid: int, ident: str) -> None:
        """Bind a human-readable identity (e.g. ``"rank:seq"``)."""
        if not 0 <= mid < self._next_mid:
            return
        self._label_of[mid] = ident
        self._labels[ident] = mid

    def passport(self, ident: str) -> dict | None:
        """The full lifecycle of the message labeled ``ident`` (builds
        that one record, nothing else)."""
        mid = self._labels.get(ident)
        return None if mid is None else self._record(mid).to_dict()

    # -- read side -------------------------------------------------------

    def columns(self) -> LedgerColumns:
        """The columns themselves, read only, for a one-pass fold."""
        return LedgerColumns(
            self._tails, self._mids, self._times, self._phases, self._prevs,
            self._details, self._note_mids, self._note_times,
            self._note_names, self._note_details, self._note_refs,
        )

    def _record(self, mid: int) -> MessageRecord:
        """Build ``mid``'s read model by walking its two chains back."""
        rec = MessageRecord(
            mid,
            source=self._sources[mid],
            tag=self._tags[mid],
            size=self._sizes[mid],
            protocol=self._protocols[mid],
            label=self._label_of[mid],
        )
        row = self._tails[mid]
        while row >= 0:
            rec.transitions.append(
                (self._times[row], self._phases[row], _as_dict(self._details[row]))
            )
            row = self._prevs[row]
        row = self._note_tails[mid]
        while row >= 0:
            detail = _note_dict(self._note_details[row], self._note_refs[row])
            rec.events.append((self._note_times[row], self._note_names[row], detail))
            row = self._note_prevs[row]
        rec.transitions.reverse()
        rec.events.reverse()
        return rec

    @property
    def records(self) -> dict[int, MessageRecord]:
        """A fresh snapshot of every record, by mid (mutating it leaves
        the ledger alone)."""
        return {mid: self._record(mid) for mid in range(self._next_mid)}

    # -- receive lifecycle ----------------------------------------------

    def open_receive(self, handle: int, *, source: int, tag: int) -> None:
        row = self._nrecvs
        if row == self._recv_capacity:
            self._grow_recvs()
        self._nrecvs = row + 1
        self._recv_posts[row] = 1
        self._recv_handles[row] = handle
        self._recv_source_or_mid[row] = source
        self._recv_tags[row] = tag
        self._recv_times[row] = self._clock()

    @property
    def receives(self) -> list[dict]:
        """Receive-posting ledger rows (the ReceiveRequest side): a
        completion closes its handle's oldest open row, if any."""
        rows: list[dict] = []
        waiting: dict[int, list[dict]] = {}
        who, times = self._recv_source_or_mid, self._recv_times
        for i in range(self._nrecvs):
            handle = self._recv_handles[i]
            if self._recv_posts[i]:
                row = {"handle": handle, "source": who[i], "tag": self._recv_tags[i],
                       "posted": times[i], "completed": None, "mid": -1}
                waiting.setdefault(handle, []).append(row)
                rows.append(row)
            elif waiting.get(handle):
                row = waiting[handle].pop(0)
                row["mid"], row["completed"] = who[i], times[i]
        return rows

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
                    "receives": self.receives,
                }
            }
        )


def _noop(self, *args: Any, **kwargs: Any) -> None:
    """What a :class:`NullRecorder` verb does: nothing."""


class NullRecorder(FlightRecorder):
    """Disabled recorder: every operation is an allocation-free no-op,
    and it holds no state at all — not even an empty ``records``."""

    enabled = False

    def __init__(self) -> None:
        pass

    @property
    def records(self) -> dict[int, MessageRecord]:
        raise AttributeError("a NullRecorder keeps no records")

    @property
    def receives(self) -> list[dict]:
        raise AttributeError("a NullRecorder keeps no receive rows")

    set_clock = stamp = stamp_at = stamp_staged = complete = note = _noop
    rewind = label = open_receive = event = passport = _noop

    def now(self) -> float:
        return 0.0

    def open(self, **kwargs: Any) -> int:
        return -1

    def mark(self, mid: int) -> int:
        return 0

    def columns(self) -> LedgerColumns:
        """An empty recorder's columns."""
        return FlightRecorder().columns()

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
