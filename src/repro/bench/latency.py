"""Per-message matching-latency model (Figure 8 companion).

Figure 8 reports throughput; latency is the other face of the same
cycle accounting. A message's matching latency is the time from its
completion-queue entry to its match decision:

* on the DPA, messages in one block start together but resolve at
  different depths of the block's critical path — conflicted threads
  (fast path) finish later, slow-path threads later still;
* on the host, messages queue behind the matcher's serial loop, so
  latency grows linearly with position in the burst.

The model assigns each message a latency from the engine's per-block
statistics and the cost model, and reports the distribution
(p50/p95/p99/max) per Figure 8 configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.engine import OptimisticMatcher
from repro.core.events import ResolutionPath
from repro.dpa.costs import DpaCostModel, HostCostModel
from repro.bench.scenarios import Scenario

if TYPE_CHECKING:
    import numpy as np

__all__ = ["LatencyDistribution", "dpa_latencies", "host_latencies"]


@dataclass(frozen=True, slots=True)
class LatencyDistribution:
    """Matching-latency quantiles in nanoseconds."""

    label: str
    messages: int
    p50_ns: float
    p95_ns: float
    p99_ns: float
    max_ns: float
    mean_ns: float

    @classmethod
    def from_samples(cls, label: str, samples_ns: np.ndarray) -> "LatencyDistribution":
        if samples_ns.size == 0:
            return cls(label, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
        import numpy as np

        return cls(
            label=label,
            messages=int(samples_ns.size),
            p50_ns=float(np.percentile(samples_ns, 50)),
            p95_ns=float(np.percentile(samples_ns, 95)),
            p99_ns=float(np.percentile(samples_ns, 99)),
            max_ns=float(samples_ns.max()),
            mean_ns=float(samples_ns.mean()),
        )


#: Path-dependent latency multipliers over the block's base service
#: time: optimistic resolves at the front of the critical path, the
#: fast path after one resolution round, the slow path after its
#: position in the serialized chain (approximated by 2x).
_PATH_FACTOR = {
    ResolutionPath.OPTIMISTIC: 1.0,
    ResolutionPath.FAST: 1.4,
    ResolutionPath.SLOW: 2.0,
    ResolutionPath.SERIAL: 1.0,
}


def dpa_latencies(
    scenario: Scenario,
    *,
    messages: int = 512,
    in_flight: int = 1024,
    threads: int = 32,
    cores: int = 16,
    costs: DpaCostModel | None = None,
) -> LatencyDistribution:
    """Run one scenario and model each message's matching latency."""
    costs = costs if costs is not None else DpaCostModel()
    engine = OptimisticMatcher(
        scenario.engine_config(in_flight=in_flight, threads=threads),
        keep_history=True,
    )
    for i in range(max(in_flight, messages)):
        engine.post_receive(scenario.receive(i))
    for i in range(messages):
        engine.submit_message(scenario.message(i))
    events = engine.process_all()
    samples = []
    event_index = 0
    for block in engine.stats.block_history:
        base_cycles = costs.block_cycles(block, cores) / max(block.messages, 1)
        for _ in range(block.messages):
            event = events[event_index]
            event_index += 1
            factor = _PATH_FACTOR.get(event.path, 1.0)
            cycles = base_cycles * factor + costs.dispatch_serial
            samples.append(costs.cycles_to_seconds(cycles) * 1e9)
    import numpy as np

    return LatencyDistribution.from_samples(
        scenario.label, np.asarray(samples, dtype=float)
    )


def host_latencies(
    *,
    messages: int = 512,
    burst: int = 32,
    queue_depth: int = 16,
    costs: HostCostModel | None = None,
) -> LatencyDistribution:
    """Model host matching latency for bursts of ``burst`` messages.

    Within a burst the matcher is serial: message k waits for the k-1
    before it, so latency ramps linearly — the queueing behaviour the
    offloaded engine's parallel blocks flatten.
    """
    costs = costs if costs is not None else HostCostModel()
    per_message_cycles = costs.per_message_overhead + queue_depth * costs.chain_walk
    samples = []
    for i in range(messages):
        position = i % burst
        cycles = (position + 1) * per_message_cycles
        samples.append(costs.cycles_to_seconds(cycles) * 1e9)
    import numpy as np

    return LatencyDistribution.from_samples("MPI-CPU", np.asarray(samples))
