"""One soak runner over a table of suites.

A :class:`Lane` is a fleet job template plus a verdict on each report;
a :class:`Suite` is a row of lanes with a tally, a totals line and
assert rows (the table is :data:`repro.chaos.suites.SUITES`).
:func:`run_suite` is the one outcome loop behind every
``repro-chaos <suite>``. It reads fleet outcomes in enumeration order,
so a warm ``--cache-dir`` never changes a byte of output, metrics or
traced seed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping

from repro.chaos.harness import ChaosConfig, ChaosReport, config_to_params, run_chaos
from repro.fleet import JobSpec, run_jobs
from repro.obs.ledger import NULL_RECORDER, FlightRecorder, LedgerDump
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, ScopedTracer, SpanTracer

__all__ = ["AssertRow", "Lane", "SoakResult", "Suite", "chaos_lane", "iter_jobs", "run_suite"]

#: Real lanes: a failure reason; mutant lanes: how the bug was caught.
Verdict = Callable[[Any], "str | None"]


@dataclass(frozen=True, slots=True)
class Lane:
    """One fleet job template and the verdict on each of its reports.

    A real lane fails a seed whose verdict gives a reason. A mutant
    lane's verdict is inverted: it says how the planted bug was caught,
    and the lane fails only in aggregate, if no seed caught it.
    """

    name: str
    kind: str
    #: Job params minus the seed. ``ranks`` / ``rounds`` here are
    #: defaults that :func:`iter_jobs` may override.
    params: dict
    verdict: Verdict
    mutant: bool = False
    #: ChaosConfig lanes: the template re-run under tracer / recorder.
    config: ChaosConfig | None = None
    #: Replaces the suite's verbose line (``None`` from it: no line).
    describe: Verdict | None = None


def chaos_lane(name: str, config: ChaosConfig, verdict: Verdict, **kw) -> Lane:
    params = {"profile": name, "config": config_to_params(config)}
    return Lane(name, "chaos_run", params, verdict, config=config, **kw)


@dataclass(slots=True)
class SoakResult:
    """Aggregate outcome of one suite run."""

    runs: int = 0
    failures: int = 0
    #: ``lane/seed=N`` of every failed run, in job order.
    failed: list[str] = field(default_factory=list)
    #: The suite's tally (sums, plus maxima).
    totals: dict[str, int] = field(default_factory=dict)
    #: mutant lane name -> seeds on which the planted bug was caught.
    mutants_caught: dict[str, int] = field(default_factory=dict)
    #: No failed run and no broken assert row.
    ok: bool = True

    @property
    def mutants_missed(self) -> list[str]:
        return sorted(n for n, caught in self.mutants_caught.items() if caught == 0)

    def fields(self) -> dict[str, Any]:
        """What a totals line or an assert message may name."""
        return {
            **self.totals,
            "runs": self.runs,
            "failures": self.failures,
            "caught": sum(1 for n in self.mutants_caught.values() if n),
            "mutants": len(self.mutants_caught),
            "missed": self.mutants_missed,
        }


@dataclass(frozen=True, slots=True)
class AssertRow:
    """A suite-wide rule over the result: always on when ``flag`` is
    ``None``, else behind ``--assert-<flag>``."""

    flag: str | None
    broken: Callable[[SoakResult], bool]
    #: Formatted with :meth:`SoakResult.fields`.
    message: str
    help: str = ""


@dataclass(frozen=True, slots=True)
class Suite:
    name: str
    help: str
    lanes: dict[str, Lane]
    schedules: int
    #: Verbose line per run, after ``<lane> seed=N: ``.
    describe: Callable[[Any], str]
    #: Totals line, formatted with :meth:`SoakResult.fields`.
    totals: str
    sums: Mapping[str, Callable[[Any], int]] = field(default_factory=dict)
    peaks: Mapping[str, Callable[[Any], int]] = field(default_factory=dict)
    asserts: tuple[AssertRow, ...] = ()
    #: Right-align lane names in verbose lines to this width.
    width: int = 0
    #: Artifact flags: any of ``trace``, ``ledger``, ``metrics``.
    artifacts: tuple[str, ...] = ()

    @property
    def sized(self) -> bool:
        """Whether ``--ranks`` / ``--rounds`` apply (cluster-scale lanes)."""
        return all("ranks" in lane.params for lane in self.lanes.values())


def iter_jobs(
    lanes: Iterable[Lane], seeds: range, *, ranks: int | None = None, rounds: int | None = None
) -> Iterator[JobSpec]:
    """Lazily enumerate the lanes x seeds matrix as fleet jobs.

    A generator on purpose: a long soak never materializes its grid —
    the fleet pulls one job at a time. Lane-major, seed-minor order
    fixes job indices. ``ranks`` / ``rounds`` override the template's.
    """
    sizes = {"ranks": ranks, "rounds": rounds}
    for lane in lanes:
        params = dict(lane.params)
        params.update((k, v) for k, v in sizes.items() if v is not None and k in params)
        for seed in seeds:
            yield JobSpec(kind=lane.kind, params=params, seed=seed)


#: ChaosReport counters folded into the soak metrics registry.
_REPORT_COUNTERS = (
    "sent",
    "delivered",
    "retransmits",
    "rnr_naks",
    "faults_injected",
    "dropped",
    "duplicated",
    "reordered",
    "corrupted",
    "host_spills",
    "degraded_stagings",
    "fallback_spills",
    "fallback_recoveries",
    "engine_retransmits",
    "engine_rnr_naks",
    "core_fail_stops",
    "core_hangs",
    "core_bit_flips",
    "block_rollbacks",
    "blocks_replayed",
    "cores_quarantined",
    "core_repairs",
    "host_takeovers",
    "reoffloads",
    "watchdog_checks",
    "budget_overruns",
    "demotions",
    "evictions",
    "recalls",
    "posts_deferred",
    "credit_holds",
    "pressure_entries",
    "pressure_exits",
    "pressure_takeovers",
    "pressure_reoffloads",
)


def _record(registry: MetricsRegistry, name: str, report: ChaosReport | None) -> None:
    """Fold one outcome into the cumulative metrics (``None``: quarantined)."""
    labels = {"profile": name}
    registry.counter("chaos.runs", "chaos runs executed").labels(**labels).inc()
    if report is None or not report.ok:
        registry.counter("chaos.failures", "runs violating exactly-once/oracle").labels(
            **labels
        ).inc()
    if report is None:
        return
    if report.transport_failed:
        registry.counter(
            "chaos.transport_failures", "runs ending in TransportError"
        ).labels(**labels).inc()
    for field_name in _REPORT_COUNTERS:
        registry.counter(
            f"chaos.{field_name}", f"cumulative ChaosReport.{field_name}"
        ).labels(**labels).inc(getattr(report, field_name))
    registry.histogram(
        "chaos.retransmits_per_run",
        "retransmissions needed by one run",
        buckets=(0, 1, 2, 5, 10, 20, 50, 100),
    ).labels(**labels).observe(report.retransmits)
    registry.histogram(
        "chaos.generations_per_run",
        "engine generations one run spanned",
        buckets=(1, 2, 3, 5, 8),
    ).labels(**labels).observe(1 + report.fallback_recoveries)


def _interest(report: ChaosReport) -> int:
    """How much a run would show in a trace (for picking what to trace)."""
    return (
        1000 * (report.fallback_spills + report.fallback_recoveries)
        + 1000 * (report.host_takeovers + report.reoffloads)
        + 1000 * (report.pressure_takeovers + report.pressure_reoffloads)
        + 100 * report.blocks_replayed
        + 100 * (report.evictions + report.recalls)
        + 10 * report.block_rollbacks
        + 10 * report.demotions
        + report.retransmits
        + report.rnr_naks
        + report.posts_deferred
    )


def run_suite(
    suite: Suite,
    schedules: int | None = None,
    seed_base: int = 1,
    *,
    lanes: Collection[str] | None = None,
    ranks: int | None = None,
    rounds: int | None = None,
    cache_dir: str | None = None,
    registry: MetricsRegistry | None = None,
    tracer: SpanTracer | None = None,
    ledger_sink: list[LedgerDump] | None = None,
    asserts: Collection[str] = (),
    verbose: bool = False,
    out=None,
    err=None,
) -> SoakResult:
    """Run ``schedules`` seeds (default: the suite's) through its lanes.

    ``lanes`` selects lanes by name (table order is kept); ``asserts``
    names the flag-gated assert rows to check besides the always-on
    ones. Every outcome is recorded once, a quarantined job included.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    selected = [lane for lane in suite.lanes.values() if lanes is None or lane.name in lanes]
    seeds = range(seed_base, seed_base + (suite.schedules if schedules is None else schedules))
    result = SoakResult(
        totals=dict.fromkeys([*suite.sums, *suite.peaks], 0),
        mutants_caught={lane.name: 0 for lane in selected if lane.mutant},
    )
    fleet = run_jobs(iter_jobs(selected, seeds, ranks=ranks, rounds=rounds), cache_dir=cache_dir)
    reports: dict[str, list] = {lane.name: [] for lane in selected}

    def fail(lane: Lane, seed: int, reason: str) -> None:
        result.failures += 1
        result.failed.append(f"{lane.name}/seed={seed}")
        print(f"FAIL {lane.name} seed={seed}: {reason}", file=err)

    for outcome in fleet.outcomes:
        lane = suite.lanes[outcome.spec.params["profile"]]
        seed = outcome.spec.seed
        report = outcome.result if outcome.ok else None
        result.runs += 1
        if registry is not None:
            _record(registry, lane.name, report)
        if report is None:
            fail(lane, seed, f"quarantined ({outcome.error})")
            continue
        reports[lane.name].append(report)
        for key, get in suite.sums.items():
            result.totals[key] += get(report)
        for key, get in suite.peaks.items():
            result.totals[key] = max(result.totals[key], get(report))
        verdict = lane.verdict(report)
        if verbose:
            line = (lane.describe or suite.describe)(report)
            if line is not None:
                print(f"{lane.name:>{suite.width}} seed={seed}: {line}", file=out)
        if lane.mutant:
            if verdict is not None:
                result.mutants_caught[lane.name] += 1
        elif verdict is not None:
            fail(lane, seed, verdict)
            if ledger_sink is not None and lane.config is not None:
                # The failing seed again, under the flight recorder: the
                # report ships the violating message's passport, the
                # sink gets the full ledger.
                recorder = FlightRecorder()
                rerun = run_chaos(replace(lane.config, seed=seed), recorder=recorder)
                ledger_sink.append(recorder.export(scenario=f"{lane.name}/seed{seed}"))
                if rerun.passport:
                    phases = "->".join(
                        str(t[1]) for t in rerun.passport.get("transitions", ())
                    )
                    print(f"  passport {rerun.passport.get('label', '')}: {phases}", file=err)

    # Each real ChaosConfig lane's most eventful seed, re-run (same seed,
    # same report) under a scoped tracer and / or the flight recorder.
    trace_on = tracer is not None and tracer.enabled
    rerun_lanes = selected if trace_on or ledger_sink is not None else []
    for lane in rerun_lanes:
        candidates = [r for r in reports[lane.name] if not r.transport_failed]
        if lane.config is None or lane.mutant or not candidates:
            continue
        seed = max(candidates, key=_interest).seed
        recorder = FlightRecorder() if ledger_sink is not None else NULL_RECORDER
        run_chaos(
            replace(lane.config, seed=seed),
            tracer=ScopedTracer(tracer, f"{lane.name}/") if trace_on else NULL_TRACER,
            recorder=recorder,
        )
        if ledger_sink is not None:
            ledger_sink.append(recorder.export(scenario=lane.name))
        if verbose:
            print(f"{lane.name}: traced seed {seed}", file=out)

    result.ok = not result.failures
    fields = result.fields()
    for row in suite.asserts:
        if (row.flag is None or row.flag in asserts) and row.broken(result):
            print(f"ASSERT FAILED: {row.message.format(**fields)}", file=err)
            result.ok = False
    return result
