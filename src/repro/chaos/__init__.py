"""Seeded chaos harness: the full offload stack under a lossy wire.

Runs randomized but fully deterministic schedules of receive posts and
sends through ``Wire -> FaultyWire -> ReliableWire -> QueuePair ->
RdmaReceiver + OptimisticMatcher`` and cross-checks the observable
outcome (which receive got which message, exactly once) against the
serial linked-list oracle.

The soaks are one runner over a table: a *lane* is a fleet job template
plus a verdict (:class:`repro.chaos.runner.Lane`); a *suite* is lanes,
a tally, a totals line and assert rows (:class:`repro.chaos.runner.Suite`,
table :data:`repro.chaos.suites.SUITES`); :func:`repro.chaos.runner.run_suite`
runs any row, and ``repro-chaos <suite>`` (:mod:`repro.chaos.cli`) is
its one front door.
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "harness": "ChaosConfig ChaosReport run_chaos",
})
