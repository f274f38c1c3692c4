"""Model-based property tests: the unexpected-message indexes against
a brute-force reference model, and the receive indexes' incremental
bookkeeping (O(1) live count, touched-chains sweep) against full scans."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, OptimisticMatcher
from repro.core.constants import ANY_SOURCE, ANY_TAG
from repro.core.descriptor import DescriptorTable
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.indexes import ReceiveIndexes, UnexpectedIndexes, UnexpectedMessage
from repro.core.threadsim import ScriptedPolicy
from repro.recovery.journal import checkpoint_engine, host_takeover, restore_engine
from tests.conftest import schedules

COMMON = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class _ListModel:
    """Reference semantics: a plain arrival-ordered list."""

    def __init__(self):
        self.messages = []

    def insert(self, envelope):
        self.messages.append(envelope)

    def search(self, request):
        for envelope in self.messages:
            if request.matches(envelope):
                return envelope
        return None

    def remove(self, envelope):
        self.messages.remove(envelope)


#: ops: (is_insert, source, tag, wildcard_src, wildcard_tag)
ops_strategy = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 2),
        st.integers(0, 2),
        st.booleans(),
        st.booleans(),
    ),
    max_size=80,
)


class TestUnexpectedIndexesModel:
    @COMMON
    @given(ops=ops_strategy, bins=st.sampled_from([1, 2, 8, 64]))
    def test_matches_reference_model(self, ops, bins):
        indexes = UnexpectedIndexes(bins)
        model = _ListModel()
        arrival = 0
        live: dict[int, UnexpectedMessage] = {}
        for is_insert, source, tag, wc_src, wc_tag in ops:
            if is_insert:
                envelope = MessageEnvelope(source=source, tag=tag, arrival=arrival)
                arrival += 1
                um = UnexpectedMessage(envelope=envelope)
                indexes.insert(um)
                model.insert(envelope)
                live[envelope.arrival] = um
            else:
                request = ReceiveRequest(
                    source=ANY_SOURCE if wc_src else source,
                    tag=ANY_TAG if wc_tag else tag,
                )
                found = indexes.search(request)
                expected = model.search(request)
                if expected is None:
                    assert found is None
                else:
                    assert found is not None
                    assert found.envelope == expected
                    indexes.remove(found)
                    model.remove(expected)
                    del live[found.envelope.arrival]
            assert len(indexes) == len(model.messages)

    @COMMON
    @given(ops=ops_strategy)
    def test_structure_counts_stay_consistent(self, ops):
        """Every message is in all four structures until removed."""
        indexes = UnexpectedIndexes(8)
        count = 0
        for is_insert, source, tag, _w1, _w2 in ops:
            if is_insert:
                indexes.insert(
                    UnexpectedMessage(
                        envelope=MessageEnvelope(source=source, tag=tag, arrival=count)
                    )
                )
                count += 1
            elif count > 0:
                found = indexes.search(ReceiveRequest())  # catch-all
                if found is not None:
                    indexes.remove(found)
                    count -= 1
            assert indexes.no_wildcard.total_live() == count
            assert indexes.source_wildcard.total_live() == count
            assert indexes.tag_wildcard.total_live() == count
            assert len(indexes.both_wildcard) == count


def _chains(indexes: ReceiveIndexes):
    for table in (indexes.no_wildcard, indexes.source_wildcard, indexes.tag_wildcard):
        yield from table
    yield indexes.both_wildcard


def _scan_live(indexes: ReceiveIndexes) -> int:
    return sum(len(chain) for chain in _chains(indexes))


def _scan_marked(indexes: ReceiveIndexes) -> int:
    return sum(chain.physical_length - len(chain) for chain in _chains(indexes))


def _check_sweep(indexes: ReceiveIndexes) -> None:
    """``sweep()`` visits only touched chains yet must remove exactly
    what a scan of every chain finds marked, leaving none behind."""
    assert indexes.total_live() == _scan_live(indexes)
    marked = _scan_marked(indexes)
    assert indexes.sweep() == marked
    assert all(chain.physical_length == len(chain) for chain in _chains(indexes))
    assert indexes.sweep() == 0
    assert indexes.total_live() == _scan_live(indexes)


#: ops: (kind 0-1=insert / 2=lazy consume / 3=eager consume (cancel) /
#: 4=sweep, source, tag, wildcard_src, wildcard_tag, victim selector)
receive_ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 2),
        st.integers(0, 2),
        st.booleans(),
        st.booleans(),
        st.integers(0, 1000),
    ),
    max_size=80,
)


class TestReceiveIndexesBookkeeping:
    @COMMON
    @given(ops=receive_ops_strategy, bins=st.sampled_from([1, 2, 8, 64]))
    def test_live_count_and_sweep_match_full_scans(self, ops, bins):
        indexes = ReceiveIndexes(bins)
        table = DescriptorTable(256, 4)
        live = []
        for label, (kind, source, tag, wc_src, wc_tag, pick) in enumerate(ops):
            if kind <= 1:
                request = ReceiveRequest(
                    source=ANY_SOURCE if wc_src else source,
                    tag=ANY_TAG if wc_tag else tag,
                )
                descr = table.allocate(request, label, 0)
                indexes.insert(descr)
                live.append(descr)
            elif kind <= 3 and live:
                descr = live.pop(pick % len(live))
                indexes.consume(descr, lazy=kind == 2)
                table.release(descr)
            elif kind == 4:
                _check_sweep(indexes)
            assert indexes.total_live() == len(live) == _scan_live(indexes)
        _check_sweep(indexes)


#: op: (kind 0-1=post / 2-4=message / 5=cancel / 6=process, source, tag,
#: wildcard selector, cancel target)
engine_ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 7),
        st.integers(0, 40),
    ),
    max_size=80,
)


def _drive(engine: OptimisticMatcher, ops, first_handle: int = 0) -> None:
    handle = first_handle
    for seq, (kind, source, tag, wild, target) in enumerate(ops):
        if kind <= 1:
            engine.post_receive(
                ReceiveRequest(
                    source=ANY_SOURCE if wild in (5, 7) else source,
                    tag=ANY_TAG if wild in (6, 7) else tag,
                    handle=handle,
                )
            )
            handle += 1
        elif kind <= 4:
            engine.submit_message(MessageEnvelope(source=source, tag=tag, send_seq=seq))
        elif kind == 5:
            engine.cancel_receive(target)
        else:
            engine.process_all()
    engine.process_all()


class TestEngineSweepBookkeeping:
    @COMMON
    @given(
        ops=engine_ops_strategy,
        more=engine_ops_strategy,
        script=schedules,
        lazy=st.booleans(),
    )
    def test_across_blocks_checkpoint_restore_and_takeover(self, ops, more, script, lazy):
        config = EngineConfig(bins=4, block_threads=4, max_receives=4096, lazy_removal=lazy)
        engine = OptimisticMatcher(config, policy=ScriptedPolicy(script))
        _drive(engine, ops)
        assert engine.posted_receives == _scan_live(engine.indexes)

        # Takeover and checkpoint only read the engine: whatever the
        # last blocks left marked must still be found by the sweep.
        host = host_takeover(engine)
        assert host.posted_count == engine.posted_receives
        restored = restore_engine(
            checkpoint_engine(engine), config, policy=ScriptedPolicy(script)
        )
        _check_sweep(engine.indexes)

        # A restored generation starts clean and keeps its own books.
        assert restored.posted_receives == engine.posted_receives
        assert _scan_marked(restored.indexes) == 0
        _drive(restored, more, first_handle=1000)
        assert restored.posted_receives == _scan_live(restored.indexes)
        _check_sweep(restored.indexes)
