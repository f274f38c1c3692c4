"""Accelerator fault tolerance: core faults, block-journal recovery,
and online matching-invariant watchdogs.

PR 1 made the *wire* a fault domain (:mod:`repro.rdma.faultwire`) and
the *resources* a degradation trigger (host spill). This package makes
the accelerator's **compute** a fault domain too:

* :mod:`repro.recovery.faults` — a seeded injector for per-core
  fail-stop, hang, and transient bit-flip faults inside the matching
  engine's block threads.
* :mod:`repro.recovery.quarantine` — the recovery policy and the
  quarantine set tracking which DPA cores are currently dead.
* :mod:`repro.recovery.journal` — block-boundary checkpoints of the
  matching data structures, and rollback onto a fresh engine.
* :mod:`repro.recovery.supervisor` — :class:`Supervisor`, the one
  implementation of the degradation ladder's mechanism: engine
  generations, host takeover / re-offload, guarded block replay, and
  the parked store — shared by every front-end that degrades.
* :mod:`repro.recovery.recoverer` — :class:`RecoveringMatcher`, the
  core-fault front-end: replays faulted blocks on surviving cores and
  escalates to host takeover past the quarantine threshold.
* :mod:`repro.recovery.watchdog` — online oracle cross-checks: the
  incremental :class:`PairingOracle` for pipelines and the op-stream
  :class:`MatchingWatchdog` for matchers.
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "faults": (
        "BitFlipDetected CoreFailStop CoreFault CoreFaultInjector CoreFaultKind CoreFaultPlan "
        "CoreFaultStats"
    ),
    "journal": "BlockCheckpoint checkpoint_engine host_takeover restore_engine",
    "quarantine": "CoreQuarantine RecoveryPolicy",
    "recoverer": "RecoveringMatcher",
    "supervisor": "RecoveryStats Supervisor",
    "watchdog": "MatchingWatchdog PairingOracle WatchdogAlert",
})
