"""Rank fault tolerance: fail-stop injection, detection, repair.

The ULFM-style layer above the cluster fabric: seeded whole-rank
fail-stop faults (:mod:`repro.resilience.faults`), heartbeat failure
detection over the fabric's management lane (:mod:`repro.resilience.
heartbeat`), coordinated round-boundary checkpoints built on the PR 4
block journal (:mod:`repro.resilience.snapshot`), deterministic
agreement + shrink / respawn communicator repair (:mod:`repro.
resilience.repair`), and the resilient BSP driver that ties them
together (:mod:`repro.resilience.cluster`).
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cluster": (
        "RESILIENCE_APPS ResilienceReport ResilientClusterSim resilience_round run_resilient"
    ),
    "errors": "RankFailedError",
    "faults": "RankFaultInjector RankFaultPlan",
    "heartbeat": "HeartbeatConfig HeartbeatNetwork",
    "repair": "RepairDecision agree",
    "snapshot": "RankSnapshot WorldCheckpoint restore_rank snapshot_rank",
})
