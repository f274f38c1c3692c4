"""Tag-matching strategies (Table I) and validation tooling.

* :class:`ListMatcher` — traditional two-queue linked lists (the
  MPI-CPU baseline and the reproduction's oracle)
* :class:`BinMatcher` — Flajslik-style binned hash tables
* :class:`RankMatcher` — Dózsa-style per-source-rank queues
* :class:`OptimisticAdapter` — the paper's engine behind the common
  serial interface
* :class:`FallbackMatcher` — optimistic engine with automatic software
  fallback on descriptor-table overflow
* :mod:`repro.matching.oracle` — cross-validation of any matcher
  against the reference semantics
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "adaptive": "AdaptiveMatcher",
    "base": "Matcher MatcherCosts",
    "bin_matcher": "BinMatcher",
    "channel_matcher": "ChannelMatcher ChannelSemanticsError",
    "fallback": "FallbackMatcher",
    "list_matcher": "ListMatcher",
    "optimistic_adapter": "OptimisticAdapter",
    "oracle": "StreamOp ValidationError check_c2 cross_validate pairings run_stream",
    "rank_matcher": "RankMatcher",
})
