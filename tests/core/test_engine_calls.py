"""Call-count guard for the engine: a step whose outcome is fixed is
counted, not executed.

Counts, not timings — ``sys.setprofile`` events of the Fig. 8 ping-pong
loop at k = 100 — so the guard reads the same on any machine. The cycle
model charges a DPA thread one step per bucket lookup and per chain
node it visits, and ``test_engine_pin.py`` holds those charges fixed.
What this guard holds is the host's side of them:

* a block thread is resumed only before a read whose answer can still
  change. Walking past a node that was lazily marked before the block
  began is such a step's worth of work with nothing to read: it is
  charged, and the generator is not resumed for it;
* resumes per message stay where the lookahead search put them: 5.0
  on NC and WC-FP, 7.88 on WC-SP. The per-probe search took 8.03,
  52.8 and 116.3 here (32 threads, up to 4N = 128 marked nodes in the
  one shared chain of the WC scenarios).
"""

import sys

import pytest

from repro.bench.scenarios import PAPER_IN_FLIGHT, SCENARIOS
from repro.core.engine import OptimisticMatcher

K = 100
REPETITIONS = 3

#: Generator resumes of block threads per message, as measured plus
#: 10 % (a count of the schedule, not of the interpreter).
RESUMES_PER_MESSAGE_CEILING = {"nc": 5.0 * 1.1, "wc-fp": 5.0 * 1.1, "wc-sp": 7.88 * 1.1}


def _chains(indexes):
    for table in (indexes.no_wildcard, indexes.source_wildcard, indexes.tag_wildcard):
        yield from table
    yield indexes.both_wildcard


def _profiled_pingpong(scenario):
    """(messages, thread resumes, resumes that visit a node marked
    before their block began) of one ping-pong run."""
    engine = OptimisticMatcher(scenario.engine_config())
    premarked: set = set()
    run_block = engine.process_block

    def process_block():
        premarked.clear()
        premarked.update(
            node
            for chain in _chains(engine.indexes)
            for node in chain.iter_nodes(include_marked=True)
            if node.marked
        )
        return run_block()

    engine.process_block = process_block
    resumes = stale = 0

    def hook(frame, event, arg):
        nonlocal resumes, stale
        if event != "call":
            return
        name = frame.f_code.co_name
        if name == "_thread":
            resumes += 1
        elif name == "search_candidate":
            # A resumed search is about to read the node it stopped at.
            if frame.f_locals.get("node") in premarked:
                stale += 1

    next_post = next_msg = 0
    for _ in range(PAPER_IN_FLIGHT):
        engine.post_receive(scenario.receive(next_post))
        next_post += 1
    sys.setprofile(hook)
    try:
        for _ in range(REPETITIONS):
            for _ in range(K):
                engine.submit_message(scenario.message(next_msg))
                next_msg += 1
            engine.process_all()
            for _ in range(K):
                engine.post_receive(scenario.receive(next_post))
                next_post += 1
    finally:
        sys.setprofile(None)
    assert engine.stats.messages == next_msg
    return next_msg, resumes, stale


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_threads_resume_only_for_reads_that_can_change(scenario):
    messages, resumes, stale = _profiled_pingpong(scenario)
    assert stale == 0
    assert resumes / messages <= RESUMES_PER_MESSAGE_CEILING[scenario.name], resumes / messages
