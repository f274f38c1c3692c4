"""The job-kind registry: name -> (callable, code version).

A *kind* is a deterministic simulation entry point the fleet can run
from a pure-literal spec. Each kind carries a version string that is
folded into the cache digest — bump it when the producing code changes
semantics, and stale cached results stop matching.

Built-in kinds (resolved lazily so importing :mod:`repro.fleet` does
not pull the analyzer/chaos/bench stacks into every process):

* ``analyze_app``    — generate one synthetic app trace and analyze it
  at one bin count; returns :class:`repro.analyzer.statistics.AppAnalysis`.
* ``chaos_run``      — one seeded chaos schedule; returns
  :class:`repro.chaos.harness.ChaosReport`.
* ``bench_scenario`` — one Figure 8 configuration; returns
  :class:`repro.bench.pingpong.RateResult`.
* ``cluster_bench`` — one cluster-fabric cell (app x topology x
  placement on a clean network); returns
  :class:`repro.net.cluster.ClusterReport`.
* ``cluster_chaos`` — the same cell under a seeded link-fault plan
  (the job seed replaces the plan seed, mirroring ``chaos_run``).
* ``rank_chaos``   — a resilient cluster run under a seeded
  :class:`repro.resilience.faults.RankFaultPlan` (kills, detection,
  shrink / respawn repair); returns
  :class:`repro.resilience.cluster.ResilienceReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

__all__ = ["KindSpec", "register_kind", "resolve_kind", "kind_salt"]

#: Job function signature: (params, seed) -> result object.
KindFn = Callable[[Mapping[str, Any], int], Any]


@dataclass(frozen=True, slots=True)
class KindSpec:
    name: str
    fn: KindFn
    version: str = "1"


_KINDS: dict[str, KindSpec] = {}
_builtin_loaded = False


def register_kind(name: str, fn: KindFn, *, version: str = "1") -> None:
    """Register (or replace) a job kind."""
    _KINDS[name] = KindSpec(name=name, fn=fn, version=version)


#: ``_analyze_app``'s last prepared trace, as ``(key, prepared)``. The
#: sweep grid is app-major, so consecutive jobs ask for one trace at
#: different bin counts; a single entry serves them all and bounds what
#: a sweep keeps alive to one trace.
_last_prepared: tuple[tuple, Any] | None = None


def _analyze_app(params: Mapping[str, Any], seed: int) -> Any:
    global _last_prepared
    from repro.analyzer.processing import analyze, prepare
    from repro.traces.synthetic import generate

    key = (params["app"], params.get("processes"), int(params.get("rounds", 6)))
    if _last_prepared is None or _last_prepared[0] != key:
        app, processes, rounds = key
        _last_prepared = None  # let the old trace go before building the next
        _last_prepared = (key, prepare(generate(app, processes=processes, rounds=rounds)))
    return analyze(
        _last_prepared[1],
        int(params["bins"]),
        keep_datapoints=bool(params.get("keep_datapoints")),
    )


def _chaos_run(params: Mapping[str, Any], seed: int) -> Any:
    from dataclasses import replace

    from repro.chaos.harness import config_from_params, run_chaos

    config = replace(config_from_params(params["config"]), seed=seed)
    return run_chaos(config)


def _bench_scenario(params: Mapping[str, Any], seed: int) -> Any:
    from repro.bench.pingpong import PingPongBench
    from repro.bench.scenarios import scenario_by_name

    bench = PingPongBench(
        k=int(params.get("k", 100)),
        repetitions=int(params.get("repetitions", 50)),
        in_flight=int(params.get("in_flight", 1024)),
        threads=int(params.get("threads", 32)),
    )
    name = params["scenario"]
    if name == "mpi-cpu":
        return bench.run_mpi_cpu()
    if name == "rdma-cpu":
        return bench.run_rdma_cpu()
    return bench.run_optimistic(scenario_by_name(name))


def _cluster_kwargs(params: Mapping[str, Any]) -> dict:
    return dict(
        topology=params.get("topology", "torus"),
        placement=params.get("placement", "block"),
        rounds=int(params.get("rounds", 4)),
        size=int(params.get("size", 512)),
    )


def _cluster_bench(params: Mapping[str, Any], seed: int) -> Any:
    from repro.net.cluster import run_cluster

    return run_cluster(params["app"], int(params["ranks"]), **_cluster_kwargs(params))


def _cluster_chaos(params: Mapping[str, Any], seed: int) -> Any:
    from repro.net.cluster import run_cluster
    from repro.net.faults import LinkFaultPlan

    plan = LinkFaultPlan.from_params(params["plan"]).with_options(seed=seed)
    return run_cluster(
        params["app"], int(params["ranks"]), plan=plan, **_cluster_kwargs(params)
    )


def _rank_chaos(params: Mapping[str, Any], seed: int) -> Any:
    from repro.resilience.cluster import run_resilient
    from repro.resilience.faults import RankFaultPlan
    from repro.resilience.heartbeat import HeartbeatConfig

    plan = RankFaultPlan.from_params(params["plan"]).with_options(seed=seed)
    hb_params = params.get("heartbeat")
    heartbeat = (
        HeartbeatConfig.from_params(hb_params) if hb_params is not None else None
    )
    return run_resilient(
        params["app"],
        int(params["ranks"]),
        rounds=int(params.get("rounds", 3)),
        size=int(params.get("size", 512)),
        topology=params.get("topology", "torus"),
        placement=params.get("placement", "block"),
        plan=plan,
        heartbeat=heartbeat,
        recovery=params.get("recovery", "shrink"),
        mutant=params.get("mutant", ""),
        record=bool(params.get("record", True)),
    )


def _ensure_builtin() -> None:
    global _builtin_loaded
    if _builtin_loaded:
        return
    _builtin_loaded = True
    # chaos_run is at version 5: the report schema grew the rank
    # fault-tolerance counters (kills / detections / shrinks) — cached
    # v4 reports must not satisfy v5 sweeps.
    for name, fn, version in (
        ("analyze_app", _analyze_app, "1"),
        ("chaos_run", _chaos_run, "5"),
        ("bench_scenario", _bench_scenario, "1"),
        ("cluster_bench", _cluster_bench, "1"),
        ("cluster_chaos", _cluster_chaos, "1"),
        ("rank_chaos", _rank_chaos, "1"),
    ):
        if name not in _KINDS:
            register_kind(name, fn, version=version)


def resolve_kind(name: str) -> KindSpec:
    _ensure_builtin()
    spec = _KINDS.get(name)
    if spec is None:
        raise KeyError(f"unknown job kind {name!r}; known: {sorted(_KINDS)}")
    return spec


def kind_salt(name: str) -> str:
    """The code-version salt for one kind's cache digests."""
    import repro

    return f"repro/{repro.__version__}|{name}/{resolve_kind(name).version}"
