"""Engine pin: the simulated quantities the DPA cycle model prices.

``thread_steps``, ``wait_polls``, ``swept`` and ``probes_walked`` are
*simulated* work units (docs/CALIBRATION.md), so host-side speedups of
the executor, the waits or the sweep must leave every one of them
untouched, block by block. The fixtures under ``fixtures/`` are
``EngineStats.to_json()`` with the full ``block_history``, generated
at the commit *before* the incremental executor landed; the tests
assert byte equality.

Re-pin (``PYTHONPATH=src python -m tests.core.test_engine_pin``) only
in a PR that changes a simulated quantity on purpose.
"""

from pathlib import Path

import pytest

from repro.bench.scenarios import PAPER_IN_FLIGHT, SCENARIOS, Scenario
from repro.core import ANY_SOURCE, ANY_TAG, EngineConfig
from repro.core.engine import OptimisticMatcher
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.stats import EngineStats
from repro.core.threadsim import RandomPolicy

FIXTURES = Path(__file__).parent / "fixtures"

K = 100
REPETITIONS = 3


def _pingpong(scenario: Scenario) -> EngineStats:
    """The Fig. 8 ping-pong loop, keeping every block's stats."""
    engine = OptimisticMatcher(scenario.engine_config(), keep_history=True)
    next_post = next_msg = 0
    for _ in range(PAPER_IN_FLIGHT):
        engine.post_receive(scenario.receive(next_post))
        next_post += 1
    for _ in range(REPETITIONS):
        for _ in range(K):
            engine.submit_message(scenario.message(next_msg))
            next_msg += 1
        engine.process_all()
        for _ in range(K):
            engine.post_receive(scenario.receive(next_post))
            next_post += 1
    return engine.stats


def _mixed() -> EngineStats:
    """A wildcard-mixed post/message stream under ``RandomPolicy(7)``.

    Small tables and a tiny key domain force bucket collisions,
    conflicts, slow-path re-matches, unexpected stores and
    threshold-triggered lazy sweeps; bursts of compatible receives
    drained by one block make the fast path fire too. The op stream
    comes from an inline LCG so it cannot drift with the stdlib or
    numpy.
    """
    state = 0x2545F491

    def draw(n: int) -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return (state >> 8) % n

    engine = OptimisticMatcher(
        EngineConfig(bins=4, block_threads=8, max_receives=4096),
        policy=RandomPolicy(7),
        keep_history=True,
    )
    send_seq: dict[int, int] = {}
    handle = 0

    def post(source: int, tag: int) -> None:
        nonlocal handle
        engine.post_receive(ReceiveRequest(source=source, tag=tag, handle=handle))
        handle += 1

    def send(source: int, tag: int) -> None:
        seq = send_seq.get(source, 0)
        send_seq[source] = seq + 1
        engine.submit_message(MessageEnvelope(source=source, tag=tag, send_seq=seq))

    for _ in range(900):
        kind = draw(40)
        source, tag = draw(3), draw(3)
        if kind < 19:
            wild = draw(8)
            post(
                ANY_SOURCE if wild in (5, 7) else source,
                ANY_TAG if wild in (6, 7) else tag,
            )
        elif kind < 39:
            send(source, tag)
            if draw(12) == 0:
                engine.process_all()
        else:
            # A run of compatible receives drained by one full block:
            # the fast-path shape (§III-D.3a).
            engine.process_all()
            for _ in range(engine.config.block_threads):
                post(source, tag)
            for _ in range(engine.config.block_threads):
                send(source, tag)
            engine.process_all()
    engine.process_all()
    return engine.stats


CASES = {
    "nc": lambda: _pingpong(SCENARIOS[0]),
    "wc_fp": lambda: _pingpong(SCENARIOS[1]),
    "wc_sp": lambda: _pingpong(SCENARIOS[2]),
    "mixed_random7": _mixed,
}


@pytest.mark.parametrize("name", CASES)
def test_engine_stats_byte_identical(name):
    expected = (FIXTURES / f"engine_pin_{name}.json").read_text()
    assert CASES[name]().to_json() == expected


def test_mixed_stream_is_not_vacuous():
    """The pinned stream must exercise every simulated counter."""
    stats = _mixed()
    assert stats.optimistic_hits and stats.fast_path and stats.slow_path
    assert stats.unexpected_stored and stats.receives_matched_from_unexpected
    assert stats.wait_polls and stats.swept and stats.early_skips


if __name__ == "__main__":  # pragma: no cover - re-pin entry point
    FIXTURES.mkdir(exist_ok=True)
    for case, build in CASES.items():
        (FIXTURES / f"engine_pin_{case}.json").write_text(build().to_json())
