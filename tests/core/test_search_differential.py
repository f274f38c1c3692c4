"""Differential oracle: the lookahead search against the per-probe
reference (``reference_search.py``) inside whole engines.

The production search decides a node by looking ahead whenever the
answer cannot change before the node's own step, and yields the steps
it walked as one count. Every simulated quantity must come out as if
it had visited each node in turn: the same events, and the same
``EngineStats`` — per-block ``thread_steps``, ``wait_polls``,
``probes_walked``, ``early_skips``, ``swept`` — with the full block
history. The streams are small and collide on purpose (runs of posts
drained by runs of messages fill whole blocks whose threads race for
the same receives, and leave lazily-marked nodes in the chains), and every
engine knob the search reads or races with is drawn: bins, the
early-booking check, the fast path, lazy or eager removal and
``allow_overtaking``, under all three policies. The four planted bugs
of ``repro.core.faults`` run through both searches too, and must still
be caught.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ANY_SOURCE, ANY_TAG, EngineConfig
from repro.core.engine import OptimisticMatcher
from repro.core.faults import MUTANT_ENGINES
from repro.core.stats import EngineStats
from repro.core.threadsim import RandomPolicy, RoundRobinPolicy, ScriptedPolicy
from repro.matching import OptimisticAdapter, ValidationError, cross_validate
from repro.matching.oracle import StreamOp
from tests.conftest import op_streams, schedules
from tests.core.reference_search import search_candidate as reference_search
from tests.core.test_fault_injection import SEEDS, aba_stream, wc_burst

COMMON = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: The real engine half the time, one of the mutants otherwise.
engines = st.one_of(st.just(OptimisticMatcher), st.sampled_from(list(MUTANT_ENGINES.values())))
configs = st.builds(
    EngineConfig,
    bins=st.sampled_from([1, 2, 8]),
    block_threads=st.sampled_from([2, 4, 8]),
    max_receives=st.just(256),
    lazy_removal=st.booleans(),
    early_booking_check=st.booleans(),
    enable_fast_path=st.booleans(),
    allow_overtaking=st.booleans(),
)
#: Runs of posts drained by runs of messages over two sources and two
#: tags: whole blocks whose threads race for the same receives.
posts = st.builds(
    StreamOp.post, st.sampled_from([0, 1, ANY_SOURCE]), st.sampled_from([0, 1, ANY_TAG])
)
messages = st.builds(StreamOp.message, st.integers(0, 1), st.integers(0, 1))
bursts = st.lists(
    st.tuples(st.lists(posts, max_size=10), st.lists(messages, max_size=10)),
    min_size=1,
    max_size=4,
).map(lambda runs: [op for run in runs for ops in run for op in ops])
streams = st.one_of(op_streams(max_size=40, max_rank=2, max_tag=1), bursts)
policies = st.one_of(
    st.just(RoundRobinPolicy),
    st.integers(0, 50).map(lambda seed: partial(RandomPolicy, seed)),
    schedules.map(lambda script: partial(ScriptedPolicy, script)),
)


def _run(engine_cls, config, make_policy, ops, *, reference):
    """(outcome, stats JSON): the validated events, or the error that
    validation or the engine raised, and what the engine accounted."""
    adapter = OptimisticAdapter(config, policy=make_policy(), engine_cls=engine_cls)
    engine = adapter.engine
    engine.stats = EngineStats(keep_history=True)
    if reference:
        engine._search = partial(reference_search, engine.indexes, engine.config)
    try:
        outcome = ("ok", cross_validate(adapter, ops))
    except (ValidationError, AssertionError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, engine.stats.to_json()


class TestAgainstReference:
    @COMMON
    @given(
        engine_cls=engines,
        config=configs,
        make_policy=policies,
        ops=streams,
    )
    def test_same_events_and_stats(self, engine_cls, config, make_policy, ops):
        assert _run(engine_cls, config, make_policy, ops, reference=False) == _run(
            engine_cls, config, make_policy, ops, reference=True
        )

    def test_marked_nodes_pile_up_and_are_walked_past(self):
        """The property above must reach the case the lookahead is for:
        a chain whose head holds nodes consumed in earlier blocks that
        no sweep has unlinked yet."""
        ops = (wc_burst(6) + wc_burst(6)) * 2
        config = EngineConfig(bins=1, block_threads=4, max_receives=256, early_booking_check=False)
        production, stats = _run(OptimisticMatcher, config, RoundRobinPolicy, ops, reference=False)
        assert production[0] == "ok"
        assert (production, stats) == _run(
            OptimisticMatcher, config, RoundRobinPolicy, ops, reference=True
        )
        history = EngineStats.from_json(stats).block_history
        # The third block starts behind the six receives the first burst
        # consumed: each of its four threads walks past them to the
        # seventh node (28 probes), then the fast path shifts 0 + 1 + 2
        # + 3 more. The fifth block's epilogue is the first sweep.
        third = history[2]
        assert (third.messages, third.probes_walked, third.fast_path) == (4, 34, 3)
        assert [block.swept for block in history[:5]] == [0, 0, 0, 0, 16]


    def test_booking_races_under_random_schedules(self):
        """Four threads race for four same-key receives with the
        early-booking check on: under some schedules a lower thread
        books a node between a higher thread's lookahead and its visit,
        and the visit — not the lookahead — must see the bit."""
        ops = wc_burst(4)
        config = EngineConfig(bins=1, block_threads=4, max_receives=256)
        skips = []
        for seed in SEEDS:
            make_policy = partial(RandomPolicy, seed)
            production = _run(OptimisticMatcher, config, make_policy, ops, reference=False)
            assert production == _run(OptimisticMatcher, config, make_policy, ops, reference=True)
            skips.append(EngineStats.from_json(production[1]).early_skips)
        assert len(set(skips)) > 1, skips


#: Each mutant with the stream and config that catch it
#: (``test_fault_injection.py``).
CATCHING = {
    "no_booking": (wc_burst(), {}),
    "no_barrier": (wc_burst(), {}),
    "no_conflict_detection": (wc_burst(), {}),
    "no_sequence_guard": (aba_stream(), {"enable_fast_path": True}),
}


@pytest.mark.parametrize("name", sorted(MUTANT_ENGINES))
def test_mutants_are_caught_alike(name):
    ops, options = CATCHING[name]
    config = EngineConfig(
        bins=1, block_threads=4, max_receives=256, early_booking_check=False, **options
    )
    caught = False
    for seed in SEEDS:
        make_policy = partial(RandomPolicy, seed)
        production = _run(MUTANT_ENGINES[name], config, make_policy, ops, reference=False)
        assert production == _run(MUTANT_ENGINES[name], config, make_policy, ops, reference=True)
        caught = caught or production[0][0] != "ok"
    assert caught
