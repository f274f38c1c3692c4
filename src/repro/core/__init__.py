"""Optimistic Tag Matching — the paper's primary contribution (C1).

Public surface:

* :class:`OptimisticMatcher` — the bin-based optimistic matching engine
* :class:`EngineConfig` — all tunables (bins, block width, optimizations)
* :class:`MessageEnvelope` / :class:`ReceiveRequest` — the match inputs
* :class:`MatchEvent` — the match decisions
* ``ANY_SOURCE`` / ``ANY_TAG`` — MPI wildcards
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "config": "EngineConfig",
    "constants": "ANY_SOURCE ANY_TAG WildcardClass classify",
    "descriptor": "DescriptorTable DescriptorTableFull ReceiveDescriptor",
    "engine": "HintViolation OptimisticMatcher",
    "envelope": "InlineHashes MessageEnvelope ReceiveRequest",
    "events": "MatchEvent MatchKind ResolutionPath",
    "hashing": "compute_inline_hashes",
    "stats": "BlockStats EngineStats",
    "threadsim": "DeadlockError RandomPolicy RoundRobinPolicy ScriptedPolicy SteppedExecutor",
})
