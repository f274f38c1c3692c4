"""Flight-recorder ledger: mids, transitions, conservation primitives.

The load-bearing contracts: ``stamp`` keeps each record's transition
list monotone and deduped so attribution segments are non-negative and
telescope exactly; ``mark``/``rewind`` fence speculative block attempts
out of the waterfall; :class:`NullRecorder` is a stateless no-op so the
disabled path stays allocation-free; :class:`LedgerDump` round-trips
through JSON and merges without losing scenarios.
"""

from __future__ import annotations

import pytest

from repro.obs.ledger import (
    NULL_RECORDER,
    SCHEMA,
    FlightRecorder,
    LedgerDump,
    MessageRecord,
    NullRecorder,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clocked() -> tuple[FlightRecorder, FakeClock]:
    recorder = FlightRecorder()
    clock = FakeClock()
    recorder.set_clock(clock)
    return recorder, clock


class TestLifecycle:
    def test_open_stamps_send_and_assigns_unique_mids(self, clocked):
        recorder, clock = clocked
        clock.t = 5.0
        a = recorder.open(source=0, tag=7)
        b = recorder.open(source=1, tag=8, size=4096, protocol="rendezvous")
        assert a != b
        rec = recorder.records[a]
        assert rec.transitions == [(5.0, "send", None)]
        assert recorder.records[b].protocol == "rendezvous"
        assert recorder.records[b].size == 4096

    def test_segments_telescope_to_latency(self, clocked):
        recorder, clock = clocked
        mid = recorder.open(source=0, tag=1)
        for t, phase in ((2.0, "wire"), (3.5, "cq"), (4.0, "engine"),
                         (9.0, "matched")):
            clock.t = t
            recorder.stamp(mid, phase)
        clock.t = 10.0
        recorder.complete(mid)
        rec = recorder.records[mid]
        assert rec.completed
        assert rec.latency == 10.0
        assert sum(t1 - t0 for t0, t1, _ in rec.segments()) == rec.latency
        assert rec.phase_durations() == {
            "send": 2.0, "wire": 1.5, "cq": 0.5, "engine": 5.0, "matched": 1.0
        }

    def test_consecutive_identical_phases_dedupe(self, clocked):
        recorder, clock = clocked
        mid = recorder.open(source=0, tag=1)
        clock.t = 1.0
        recorder.stamp(mid, "umq")
        clock.t = 2.0
        recorder.stamp(mid, "umq")  # second layer double-stamps: ignored
        assert [p for _, p, _ in recorder.records[mid].transitions] == [
            "send", "umq"
        ]

    def test_timestamps_clamp_monotone(self, clocked):
        recorder, clock = clocked
        clock.t = 10.0
        mid = recorder.open(source=0, tag=1)
        clock.t = 4.0  # a layer's clock lags: clamp, never go negative
        recorder.stamp(mid, "wire")
        (t0, _, _), (t1, _, _) = recorder.records[mid].transitions
        assert t1 >= t0

    def test_unknown_mid_and_post_complete_stamps_ignored(self, clocked):
        recorder, clock = clocked
        recorder.stamp(999, "wire")  # foreign traffic: no crash, no record
        assert 999 not in recorder.records
        mid = recorder.open(source=0, tag=1)
        clock.t = 1.0
        recorder.complete(mid)
        clock.t = 2.0
        recorder.stamp(mid, "engine")  # after complete: ignored
        assert recorder.records[mid].transitions[-1][1] == "complete"

    def test_stamp_at_follows_the_rules_of_stamp(self, clocked):
        """The two state the dedupe / post-complete / clamp rules
        separately (``stamp`` is the per-packet path): whatever script
        of stamps one records, the other records too."""
        script = [
            (3.0, "wire", {"psn": 4}),
            (5.0, "wire", {}),  # same phase again: ignored
            (2.0, "cq", {}),  # behind the record's clock: clamped to 3.0
            (6.0, "complete", {}),
            (7.0, "engine", {"late": True}),  # after complete: ignored
        ]
        recorder, clock = clocked
        by_clock = recorder.open(source=0, tag=1)
        explicit = recorder.open(source=0, tag=1)
        for ts, phase, detail in script:
            clock.t = ts
            recorder.stamp(by_clock, phase, **detail)
            clock.t = 99.0  # stamp_at must not look at the clock
            recorder.stamp_at(explicit, phase, ts, **detail)
            recorder.stamp_at(999, phase, ts)  # foreign traffic
        clock.t = 0.0
        assert recorder.records[by_clock].transitions == [
            (0.0, "send", None),
            (3.0, "wire", {"psn": 4}),
            (3.0, "cq", None),
            (6.0, "complete", None),
        ]
        assert recorder.records[explicit].transitions == recorder.records[by_clock].transitions
        assert 999 not in recorder.records

    def test_without_clock_stamps_read_zero(self):
        recorder = FlightRecorder()
        mid = recorder.open(source=0, tag=1)
        assert recorder.records[mid].transitions == [(0.0, "send", None)]


class TestSpeculationFence:
    def test_rewind_discards_rolled_back_stamps(self, clocked):
        recorder, clock = clocked
        mid = recorder.open(source=0, tag=1)
        clock.t = 1.0
        recorder.stamp(mid, "engine")
        mark = recorder.mark(mid)
        clock.t = 2.0
        recorder.stamp(mid, "matched")  # speculative attempt
        recorder.rewind(mid, mark)
        recorder.note(mid, "rollback", attempt=1)
        clock.t = 3.0
        recorder.stamp(mid, "matched")  # the replay is authoritative
        rec = recorder.records[mid]
        assert [p for _, p, _ in rec.transitions] == ["send", "engine", "matched"]
        assert rec.transitions[-1][0] == 3.0
        assert [(ts, name) for ts, name, _ in rec.events] == [(2.0, "rollback")]

    def test_mark_of_unknown_mid_is_zero_and_rewind_is_safe(self, clocked):
        recorder, _ = clocked
        assert recorder.mark(123) == 0
        recorder.rewind(123, 0)  # no crash


class TestAnnotationsAndPassport:
    def test_notes_never_alter_the_waterfall(self, clocked):
        recorder, clock = clocked
        mid = recorder.open(source=0, tag=1)
        clock.t = 1.0
        recorder.stamp(mid, "wire")
        recorder.note(mid, "retransmit", psn=3)
        clock.t = 5.0
        recorder.complete(mid)
        rec = recorder.records[mid]
        assert rec.phase_durations() == {"send": 1.0, "wire": 4.0}
        assert rec.events == [(1.0, "retransmit", {"psn": 3})]

    def test_label_binds_passport(self, clocked):
        recorder, clock = clocked
        mid = recorder.open(source=2, tag=9)
        recorder.label(mid, "2:0")
        clock.t = 3.0
        recorder.complete(mid)
        passport = recorder.passport("2:0")
        assert passport is not None
        assert passport["mid"] == mid
        assert passport["label"] == "2:0"
        assert recorder.passport("no-such-ident") is None

    def test_receive_ledger_pairs_fifo_per_handle(self, clocked):
        recorder, clock = clocked
        recorder.open_receive(7, source=0, tag=1)
        clock.t = 1.0
        recorder.open_receive(7, source=0, tag=1)
        clock.t = 2.0
        recorder.complete(11, 7)  # mid 11 has no record: the receive still closes
        rows = recorder.receives
        assert rows[0]["completed"] == 2.0 and rows[0]["mid"] == 11
        assert rows[1]["completed"] is None

    def test_run_level_events(self, clocked):
        recorder, clock = clocked
        clock.t = 4.0
        recorder.event("takeover", reason="budget")
        assert recorder.events == [(4.0, "takeover", {"reason": "budget"})]


class TestExportRoundTrip:
    def _populated(self) -> FlightRecorder:
        recorder = FlightRecorder()
        clock = FakeClock()
        recorder.set_clock(clock)
        mid = recorder.open(source=0, tag=1, size=64)
        recorder.label(mid, "0:0")
        clock.t = 2.0
        recorder.stamp(mid, "wire")
        recorder.note(mid, "rnr")
        clock.t = 5.0
        recorder.open_receive(1, source=0, tag=1)
        recorder.complete(mid, 1)
        recorder.event("reoffload")
        return recorder

    def test_json_round_trip_preserves_everything(self):
        dump = self._populated().export(scenario="unit")
        restored = LedgerDump.from_json(dump.to_json())
        assert restored.to_json() == dump.to_json()
        records = [rec for _, rec in restored.iter_records("unit")]
        assert len(records) == 1
        rec = records[0]
        assert rec.completed and rec.latency == 5.0
        assert rec.events == [(2.0, "rnr", None)]

    def test_mutating_a_records_snapshot_leaves_the_ledger_alone(self):
        recorder = self._populated()
        before = recorder.export(scenario="unit").to_json()
        snapshot = recorder.records
        rec = snapshot[0]
        rec.transitions.append((9.0, "engine", None))
        rec.transitions[0] = (7.0, "send", None)
        rec.events.clear()
        rec.label = "forged"
        del snapshot[0]
        assert recorder.export(scenario="unit").to_json() == before
        assert recorder.records[0].label == "0:0"
        assert recorder.passport("0:0")["transitions"][0] == [0.0, "send", {}]

    def test_from_json_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            LedgerDump.from_dict({"schema": "bogus/v0", "scenarios": {}})
        assert SCHEMA == "repro.obs.ledger/v1"

    def test_merge_suffixes_duplicate_scenarios(self):
        a = self._populated().export(scenario="run")
        b = self._populated().export(scenario="run")
        merged = a.merge(b).merge(self._populated().export(scenario="run"))
        assert sorted(merged.scenarios) == ["run", "run#2", "run#3"]
        assert len(list(merged.iter_records())) == 3

    def test_message_record_dict_round_trip(self):
        rec = MessageRecord(3, source=1, tag=2, size=8, protocol="rendezvous",
                            label="1:9")
        rec.transitions = [(0.0, "send", None), (1.0, "wire", {"psn": 4})]
        rec.events = [(0.5, "credit_stall", None)]
        clone = MessageRecord.from_dict(rec.to_dict())
        assert clone.to_dict() == rec.to_dict()
        assert clone.transitions == rec.transitions
        assert clone.events == rec.events


class TestNullRecorder:
    def test_disabled_flag_is_class_attribute(self):
        assert NullRecorder.enabled is False
        assert FlightRecorder.enabled is True
        assert NULL_RECORDER.enabled is False

    def test_every_operation_is_a_stateless_noop(self):
        recorder = NullRecorder()
        assert recorder.open(source=0, tag=1) == -1
        recorder.set_clock(lambda: 99.0)
        assert recorder.now() == 0.0
        recorder.stamp(0, "wire")
        recorder.stamp_at(0, "staged", 1.0)
        recorder.stamp_staged(0, ("where", "bounce"))
        recorder.complete(0, 0)
        recorder.note(0, "retransmit")
        assert recorder.mark(0) == 0
        recorder.rewind(0, 0)
        recorder.label(0, "x")
        assert recorder.passport("x") is None
        recorder.open_receive(0, source=0, tag=0)
        recorder.event("takeover")
        assert recorder.export().scenarios == {}
        assert not hasattr(recorder, "records")  # truly allocation-free
