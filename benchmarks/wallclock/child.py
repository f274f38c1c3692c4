"""One fresh process per measurement: set up a workload, then time it,
count its Python calls, or trace it. Prints one JSON object on stdout.

Single process, single thread, closed loop: one rep at a time. Set-up is
import + input build + one warm-up rep (un-warmed medians differed by up to
40 % between runs); ``gc.collect()`` runs before each rep and GC stays
enabled inside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

from . import calib
from .spans import SPAN_NAMES, Tracer, ledger
from .workloads import SMOKE, WORKLOADS, Outcome, digest

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
#: Traced reps per traced child: spans stay in memory (hundreds of
#: thousands per cluster rep), so the traced part is a fixed small sample.
TRACED_REPS = 3
#: Reps per child of `run --smoke`, in place of a time budget.
SMOKE_REPS = 2


def load_golden(name: str, seed: int) -> dict:
    """The pinned seed-0 facts of one workload; nothing is pinned elsewhere."""
    if seed != 0:
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as fp:
        return json.load(fp)["workloads"].get(name, {})


class Runner:
    """Runs reps of one workload and judges each against the expected
    simulated results."""

    def __init__(self, workload, seed: int, pinned: dict) -> None:
        self.workload = workload
        self.inputs = self.workload.build(seed)
        self.pinned = pinned
        #: digest every rep must reproduce: the pinned one at seed 0,
        #: otherwise the warm-up rep's
        self.expected = pinned.get("sim_digest")
        self.events = 0
        self.digests: list[str] = []
        self.failed_reps = 0
        self.reps = 0
        self.problems: list[str] = []
        self.last: Outcome | None = None

    def timed_rep(self, around=lambda fn: fn()) -> float:
        """One rep; host seconds it took. ``around`` runs the rep call
        (the counting child passes its profiler here)."""
        gc.collect()
        outcome = None
        start = time.perf_counter()
        try:
            outcome = around(lambda: self.workload.rep(self.inputs))
        except Exception:  # a rep that raises is a failed rep, not a crash
            problems = [traceback.format_exc(limit=4).strip().splitlines()[-1]]
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if outcome is not None:
            problems = self.judge(outcome)
        self.reps += 1
        if problems:
            self.failed_reps += 1
            self.problems.extend(f"rep {self.reps}: {p}" for p in problems)
        return elapsed

    def judge(self, outcome: Outcome) -> list[str]:
        self.last = outcome
        problems = self.workload.check(outcome)
        events = self.workload.events(outcome)
        found = digest(self.workload.simulated(outcome))
        if found not in self.digests:
            self.digests.append(found)
        self.expected = self.expected or found
        if found != self.expected:
            problems.append(f"sim_digest {found[:16]} != expected {self.expected[:16]}")
        if "events" in self.pinned and events != self.pinned["events"]:
            problems.append(f"{events} events != pinned {self.pinned['events']}")
        self.events = self.events or events
        return problems

    def summary(self) -> dict:
        return {
            "events": self.events,
            "reps": self.reps,
            "failed_reps": self.failed_reps,
            "problems": self.problems[:20],
            "sim_digests": self.digests,
            "figures": self.workload.figures(self.last) if self.last else [],
        }


def _rep_loop(runner: Runner, seconds: float, reps: int | None, *, extend: bool):
    """Calibration-bracketed reps: ``reps`` of them, or as many as start
    within ``seconds`` (at least three). With ``extend``, continue up to
    1.5x the planned count while fewer than 3/4 of the planned are clean."""
    brackets = [calib.calibrate()]
    times: list[float] = []
    rates: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds

    def one() -> None:
        times.append(runner.timed_rep())
        brackets.append(calib.calibrate())
        if runner.last is not None:
            for key, value in runner.workload.host_rates(runner.last).items():
                rates.setdefault(key, []).append(value)

    def more_planned() -> bool:
        if reps:
            return len(times) < reps
        return len(times) < 3 or time.perf_counter() < deadline

    while more_planned():
        one()
    planned = len(times)
    while (
        extend
        and sum(calib.clean_flags(brackets)) < calib.clean_needed(planned)
        and len(times) < calib.rep_limit(planned)
    ):
        one()
    return planned, times, brackets, rates


def run_timed(runner: Runner, args) -> dict:
    planned, times, brackets, _rates = _rep_loop(runner, args.seconds, args.reps, extend=True)
    return {"planned": planned, "rep_s": times, "brackets_s": brackets}


def count_calls(fn):
    """``fn()`` under ``sys.setprofile``; (result, ``call`` + ``c_call`` events)."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def run_counted(runner: Runner, args) -> dict:
    counted = {"py_calls": None}  # stays None when the rep raises: no count

    def around(fn):
        result, counted["py_calls"] = count_calls(fn)
        return result

    runner.timed_rep(around)
    pinned = runner.pinned.get("py_calls")
    if pinned is not None and counted["py_calls"] != pinned:
        # Not a failed rep: the count is the program's cost, which later
        # changes are meant to move; the parent reports it beside the pin.
        print(f"py_calls {counted['py_calls']} != pinned {pinned}", file=sys.stderr)
    return counted


def run_traced(runner: Runner, args) -> dict:
    """Untraced reps first (the overhead baseline and the per-scenario host
    rates), then ``TRACED_REPS`` reps with the boundary wrappers installed."""
    traced_reps = min(TRACED_REPS, args.reps) if args.reps else TRACED_REPS
    _planned, plain, brackets, rates = _rep_loop(
        runner, args.seconds / 2, args.reps, extend=False
    )
    tracer = Tracer()
    traced: list[float] = []
    counts: list[dict] = []
    tracer.install()
    try:
        for rep in range(traced_reps):
            tracer.begin_rep(rep)
            traced.append(runner.timed_rep())
            brackets.append(calib.calibrate())
            if runner.last is not None:
                counts.append(
                    runner.workload.counts(runner.last, list(tracer.engines.values()))
                )
    finally:
        tracer.restore()
    per_rep = ledger(tracer.columns)
    layers: dict[str, float] = {}
    for name in SPAN_NAMES:
        cells = [per_rep.get(rep, {}).get(name) for rep in range(traced_reps)]
        for key, scale in (("calls", 1), ("busy_ns", 1e-9), ("self_ns", 1e-9)):
            values = [cell[key] * scale if cell else 0 for cell in cells]
            layers[f"{name}.{key.replace('_ns', '_s')}"] = statistics.median(values)
    if counts:
        if any(c != counts[0] for c in counts):
            runner.problems.append("per-layer counts differ between traced reps")
            runner.failed_reps += 1
        layers.update(counts[0])
        pinned = runner.pinned.get("counts", {})
        moved = {k: (v, counts[0].get(k)) for k, v in pinned.items() if counts[0].get(k) != v}
        if moved:
            print(f"counts differ from the pins: {moved}", file=sys.stderr)
    for key, values in rates.items():
        layers[key] = 1.0 / calib.fast_quartile([1.0 / rate for rate in values])
    flags = calib.clean_flags(brackets)
    layers["harness.trace_overhead_x"] = calib.fast_quartile(traced) / calib.fast_quartile(plain)
    layers["harness.noisy_reps"] = len(flags) - sum(flags)
    layers["harness.calib_ms"] = min(brackets) * 1e3
    if args.trace_out:
        os.makedirs(os.path.dirname(os.path.abspath(args.trace_out)), exist_ok=True)
        tracer.to_json(
            args.trace_out,
            meta={
                "workload": args.workload,
                "seed": args.seed,
                "traced_rep_s": traced,
                "untraced_rep_s": plain,
            },
        )
    return {
        "layers": layers,
        "counts": counts[0] if counts else {},
        "traced_rep_s": traced,
        "untraced_rep_s": plain,
        "spans": len(tracer.columns["name"]),
    }


MODES = {"timed": run_timed, "counted": run_counted, "traced": run_traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.wallclock.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=sorted(MODES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--t0", type=float, required=True, help="epoch when the parent spawned us")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--repin", action="store_true", help="ignore the pins (parent rewrites them)")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke sizes, SMOKE_REPS reps: nothing is pinned")
    args = parser.parse_args(argv)
    args.reps = SMOKE_REPS if args.smoke else None

    unpinned = args.repin or args.smoke
    pinned = {} if unpinned else load_golden(args.workload, args.seed)
    runner = Runner((SMOKE if args.smoke else WORKLOADS)[args.workload], args.seed, pinned)
    runner.timed_rep()  # warm-up: caches fill and lazy imports finish
    setup_s = time.time() - args.t0
    body = MODES[args.mode](runner, args)
    out = {
        "mode": args.mode,
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **runner.summary(),
        **body,
    }
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
