"""Differential oracle: the columnar ``FlightRecorder`` against the
object-graph recorder it replaced (``reference_recorder.py``), op by op.

Both recorders read one fake clock and receive the same script. After
*every* operation everything a caller can observe must agree: ``mark``
of every mid (known, not yet opened, and the foreign -1 and 999), every
passport, the ``records`` snapshot, the live rows the one-pass
``columns()`` reader sees, the derived ``receives`` rows and the
exported JSON. The script interleaves ``open`` / ``stamp`` /
``stamp_at`` / ``note`` / ``complete`` across mids, takes nested marks
and rewinds to them (and to marks past either end), relabels, opens and
closes receives on repeated handles, records run-level events, and
moves the clock backwards as well as forwards, so the dedupe,
post-complete and clamp rules all fire.

Where the columnar recorder does in one call what a layer crossing
once did in several, the reference runs the primitive sequence the
fused call replaced: ``complete(mid, handle)`` against ``complete`` +
``close_receive``; the fabric arrival, ``stamp_at(mid, "staged", ...)``,
against ``phase_of(mid) == "wire"`` + ``stamp_at``; the queue pair's
``stamp_staged`` against ``stamp(mid, "staged", ...)`` + ``stamp(mid,
"cq")``. Arrivals land on records still in ``wire``, on records that
have left it, twice for one message (a duplicate or a retransmitted
copy), on foreign mids and behind the record's clock.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.obs.ledger import FlightRecorder
from tests.obs.reference_recorder import ReferenceRecorder

#: Mids the script addresses: mostly the three records the script starts
#: with and the next one opened, sometimes one not yet handed out, and
#: foreign traffic (-1 must never index from the end; 999 is past it).
MIDS = st.one_of(st.sampled_from((0, 1, 2, 3)), st.sampled_from((-1, 4, 5, 999)))
PHASES = st.sampled_from(("send", "wire", "staged", "cq", "umq", "matched", "complete"))
DETAILS = st.dictionaries(
    st.sampled_from(("psn", "where", "path")), st.integers(0, 3), max_size=2
)
TIMES = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, 7.5))
HANDLES = st.integers(0, 2)
HOPS = st.integers(1, 3)
WHERE = st.sampled_from(("bounce", "host", "inline"))
IDENTS = ("0:0", "0:1", "1:0")


class Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class RecorderDifferential(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = Clock()
        self.ref = ReferenceRecorder()
        self.new = FlightRecorder()
        self.ref.set_clock(self.clock)
        self.new.set_clock(self.clock)
        self.marks: list[tuple[int, int]] = []

    @initialize()
    def three_records(self):
        """Start with mids 0-2 open at staggered times, so most rules land
        on one of them from the first step."""
        for t in (1.0, 2.0, 3.0):
            self.clock.t = t
            self.both("open", source=0, tag=int(t))

    def both(self, method: str, *args, **kwargs):
        expected = getattr(self.ref, method)(*args, **kwargs)
        found = getattr(self.new, method)(*args, **kwargs)
        assert found == expected, (method, args, kwargs)
        return found

    @rule(t=TIMES)
    def tick(self, t):
        self.clock.t = t  # may run backwards

    @rule(
        source=st.integers(0, 2),
        tag=st.integers(0, 2),
        size=st.sampled_from((0, 64, 4096)),
        protocol=st.sampled_from(("eager", "rendezvous")),
    )
    def open(self, source, tag, size, protocol):
        self.both("open", source=source, tag=tag, size=size, protocol=protocol)

    @rule(mid=MIDS, phase=PHASES, detail=DETAILS)
    def stamp(self, mid, phase, detail):
        self.both("stamp", mid, phase, **detail)

    @rule(mid=MIDS, phase=PHASES, ts=TIMES, detail=DETAILS)
    def stamp_at(self, mid, phase, ts, detail):
        if phase != "staged" or self.ref.phase_of(mid) == "wire":
            self.ref.stamp_at(mid, phase, ts, **detail)
        self.new.stamp_at(mid, phase, ts, **detail)

    @rule(mid=MIDS, ts=TIMES, hops=HOPS)
    def arrive(self, mid, ts, hops):
        """The fabric's arrival hook, as ``FabricWire.receive`` calls it."""
        if self.ref.phase_of(mid) == "wire":
            self.ref.stamp_at(mid, "staged", ts, where="fabric", hops=hops)
        self.new.stamp_at(mid, "staged", ts, ("where", "fabric", "hops", hops))

    @rule(mid=MIDS, where=WHERE)
    def stage(self, mid, where):
        """The queue pair's staging, as ``QueuePair.process_inbound`` calls it."""
        self.ref.stamp(mid, "staged", where=where)
        self.ref.stamp(mid, "cq")
        self.new.stamp_staged(mid, ("where", where))

    @rule(mid=MIDS, arrivals=st.lists(st.tuples(TIMES, HOPS), max_size=3), where=WHERE)
    def fabric_crossing(self, mid, arrivals, where):
        """A message's whole fabric crossing: sequenced onto the wire,
        arrived no, one or more times (a duplicate, a retransmitted
        copy), then staged."""
        self.both("stamp", mid, "wire")
        for ts, hops in arrivals:
            self.arrive(mid, ts, hops)
        self.stage(mid, where)

    @rule(mid=MIDS, handle=st.one_of(st.none(), HANDLES))
    def complete(self, mid, handle):
        self.ref.complete(mid)
        if handle is not None:
            self.ref.close_receive(handle, mid)
        self.new.complete(mid, handle)

    @rule(mid=MIDS, name=st.sampled_from(("rollback", "retransmit")), detail=DETAILS)
    def note(self, mid, name, detail):
        self.both("note", mid, name, **detail)

    @rule(mid=MIDS)
    def mark(self, mid):
        self.marks.append((mid, self.both("mark", mid)))

    @rule(data=st.data())
    def rewind_to_a_mark(self, data):
        if self.marks:
            # Any mark taken so far, innermost or not.
            mid, mark = data.draw(st.sampled_from(self.marks))
            self.both("rewind", mid, mark)

    @rule(mid=MIDS, mark=st.integers(-3, 5))
    def rewind(self, mid, mark):
        self.both("rewind", mid, mark)

    @rule(mid=MIDS, ident=st.sampled_from(IDENTS))
    def label(self, mid, ident):
        self.both("label", mid, ident)

    @rule(handle=HANDLES, source=st.integers(0, 2), tag=st.integers(0, 2))
    def open_receive(self, handle, source, tag):
        self.both("open_receive", handle, source=source, tag=tag)

    @rule(name=st.sampled_from(("takeover", "reoffload")), detail=DETAILS)
    def event(self, name, detail):
        self.both("event", name, **detail)

    @invariant()
    def observably_equal(self):
        for mid in (-1, *range(8), 999):
            assert self.new.mark(mid) == self.ref.mark(mid), mid
        for ident in (*IDENTS, "never-labelled"):
            assert self.new.passport(ident) == self.ref.passport(ident), ident
        found, expected = self.new.records, self.ref.records
        assert list(found) == list(expected)
        for mid, rec in expected.items():
            got = found[mid]
            assert (got.source, got.tag, got.size, got.protocol, got.label) == (
                rec.source, rec.tag, rec.size, rec.protocol, rec.label
            ), mid
            assert got.transitions == rec.transitions, mid
            assert got.events == rec.events, mid
        # The one-pass reader sees exactly the live transitions, in order.
        columns = self.new.columns()
        live: dict[int, list] = {}
        for mid, ts, phase in zip(columns.mids, columns.times, columns.phases):
            if mid >= 0:
                live.setdefault(mid, []).append((ts, phase))
        assert live == {
            mid: [(ts, phase) for ts, phase, _ in rec.transitions]
            for mid, rec in expected.items()
            if rec.transitions
        }
        noted: dict[int, list] = {}
        for row, mid in enumerate(columns.note_mids):
            if mid >= 0:
                noted.setdefault(mid, []).append(
                    (columns.note_times[row], columns.note_names[row], columns.note_detail(row))
                )
        assert noted == {mid: rec.events for mid, rec in expected.items() if rec.events}
        assert self.new.receives == self.ref.receives
        assert self.new.events == self.ref.events
        assert self.new.export("s").to_json() == self.ref.export("s").to_json()


RecorderDifferential.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestRecorderDifferential = RecorderDifferential.TestCase
