"""repro — reproduction of "Offloaded MPI message matching: an
optimistic approach" (García et al., SC 2024).

Subpackages
-----------
``repro.core``
    Optimistic Tag Matching: the paper's bin-based, optimistically
    parallel matching engine (contribution C1).
``repro.matching``
    Baseline matchers (linked-list, bin-based, rank-based), the
    reference oracle, and the software-fallback controller.
``repro.dpa``
    Discrete-event model of an on-NIC Data Path Accelerator with a
    calibrated cycle-cost model.
``repro.rdma``
    Simulated RDMA substrate: queue pairs, completion queues, bounce
    buffers, eager and rendezvous protocols.
``repro.mpisim``
    A miniature MPI point-to-point runtime running on the matchers.
``repro.traces``
    DUMPI trace parsing, binary caching, and synthetic generators for
    the sixteen Table II mini-apps.
``repro.analyzer``
    The MPI trace analyzer (contribution C2): queue-depth, collision,
    call-mix, and tag-usage statistics over traces.
``repro.bench``
    The Figure 8 message-rate harness (ping-pong, NC / WC-FP / WC-SP
    scenarios, CPU baselines).
"""

from repro.util.exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "core.constants": "ANY_SOURCE ANY_TAG",
    "core.config": "EngineConfig",
    "core.events": "MatchEvent MatchKind ResolutionPath",
    "core.envelope": "MessageEnvelope ReceiveRequest",
    "core.engine": "OptimisticMatcher",
})
__all__ += ["__version__"]
