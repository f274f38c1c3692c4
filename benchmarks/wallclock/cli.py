"""Parent process: spawns the measuring children, derives the metrics,
prints them, and compares run sets.

One measurement path, ``measure``, under one policy, serves both commands:

* ``python3 benchmarks/wallclock/run.py --workload W --seed N --seconds S
  --trace 0|1`` is the ``BENCHMARK.json`` command: one workload, its
  end-to-end metrics (``--trace 0``: the timed and the counted child) or
  its per-layer metrics (``--trace 1``: the traced child) as one JSON object
  on the last line;
* ``python -m benchmarks.wallclock run --seed 0 --out RUN.json`` is that, both
  ways, over every workload: it prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from . import calib
from .child import GOLDEN_PATH
from .compare import compare_main
from .workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
RUN_SCHEMA = "benchmarks.wallclock.run/v1"
GOLDEN_SCHEMA = "benchmarks.wallclock.golden/v1"

#: Children behind the end-to-end metrics; both sample ``setup_s``.
E2E_MODES = ("timed", "counted")
#: The child behind the per-layer metrics.
TRACED_MODE = "traced"

#: Printed by ``run`` and judged by ``compare`` beside the BENCHMARK.json
#: metrics. It is 0 on every healthy run, which the driver's contract rules
#: out for a gated metric; there the same two numbers travel as ``failed`` /
#: ``attempted``.
FAILED_SHARE = {"name": "failed_share", "unit": "fraction", "better": "lower", "bound": 0.0}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def trace_path(workload: str) -> str:
    return os.path.join(OUT_DIR, f"trace.{workload}.json")


def spawn(workload: str, mode: str, *, seed: int, seconds: float,
          repin: bool = False, smoke: bool = False) -> dict:
    """Run one child to completion and parse its result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "benchmarks.wallclock.child",
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", str(seconds), "--t0", repr(time.time()),
    ]
    if mode == TRACED_MODE:
        cmd += ["--trace-out", trace_path(workload)]
    if repin:
        cmd.append("--repin")
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    ordered = sorted(values)
    return pct, ordered[min(n - 1, int(n * pct / 100))]


def tally(children: list[dict]) -> dict:
    """Correctness over every child spawned: each runs the same checks on
    each of its reps (warm-up included), and every event of a rep that fails
    one counts as failed."""
    attempted = sum(c["reps"] * c["events"] for c in children)
    failed = sum(c["failed_reps"] * c["events"] for c in children)
    digests = sorted({d for c in children for d in c["sim_digests"]})
    return {
        "attempted": attempted,
        "failed": failed,
        # No event at all: every rep raised before it produced a result.
        "failed_share": failed / attempted if attempted else 1.0,
        "sim_digests": digests,
        "correct": attempted > 0 and failed == 0 and len(digests) == 1,
        "problems": [p for c in children for p in c["problems"]],
    }


def end_to_end(timed: dict, counted: dict) -> dict:
    """The timing, call-count and memory metrics of one workload."""
    setups = [timed["setup_s"], counted["setup_s"]]
    times, brackets, planned = timed["rep_s"], timed["brackets_s"], timed["planned"]
    clean = [t for t, ok in zip(times, calib.clean_flags(brackets)) if ok]
    events, py_calls = timed["events"], counted["py_calls"]
    counted_ok = py_calls is not None and events > 0
    metrics = {
        "setup_s": {"value": calib.fast_quartile(setups), "samples": setups},
        "events_per_s": {
            # A run short of clean reps still reads a number - from the clean
            # reps it has, else from all - and carries `resolved: false`:
            # `run` prints UNRESOLVED beside it, `compare` gives the row that
            # verdict, the BENCHMARK.json command warns on stderr.
            "value": events / calib.fast_quartile(clean or times),
            "resolved": len(clean) >= calib.clean_needed(planned),
            "samples": [events / t for t in clean],
        },
        # None: the counted rep raised, so there is no count (and the rep
        # is among the failed).
        "py_calls_per_event": {"value": py_calls / events if counted_ok else None},
        "peak_rss_mb": {"value": timed["peak_rss_mb"]},
    }
    harness = {
        "planned": planned,
        "reps": len(times),
        "clean_reps": len(clean),
        "noisy_reps": len(times) - len(clean),
        "calib_ms": min(brackets) * 1e3,
    }
    return {"metrics": metrics, "harness": harness, "py_calls": py_calls}


def measure(workload: str, modes: tuple[str, ...], *, seed: int, seconds: float,
            repin: bool = False, smoke: bool = False) -> dict:
    """Spawn one child per mode and assemble what they measured: the
    end-to-end metrics when ``modes`` has ``E2E_MODES``, the per-layer
    metrics when it has ``TRACED_MODE``."""
    children = {
        mode: spawn(workload, mode, seed=seed, seconds=seconds, repin=repin, smoke=smoke)
        for mode in modes
    }
    everyone = list(children.values())
    result = {
        "workload": workload,
        "events": everyone[0]["events"],
        "figures": everyone[0]["figures"],
        **tally(everyone),
    }
    if "timed" in children:
        result.update(end_to_end(children["timed"], children["counted"]))
        result["metrics"]["failed_share"] = {"value": result["failed_share"]}
    if TRACED_MODE in children:
        traced = children[TRACED_MODE]
        result["per_layer"] = traced["layers"]
        result["counts"] = traced["counts"]
        result["trace"] = {"path": trace_path(workload), "spans": traced["spans"]}
    return result


def admit(force: bool) -> bool:
    """Whether to measure at all: not on a machine without an idle CPU,
    unless forced (the BENCHMARK.json command is, its caller needs a result)."""
    reason = calib.oversubscribed()
    if reason and not force:
        print(f"refusing to run: {reason} (--force overrides)", file=sys.stderr)
        return False
    if reason:
        print(f"warning: {reason}", file=sys.stderr)
    return True


def _program_missing() -> bool:
    if os.path.isdir(os.path.join(SRC, "repro")):
        return False
    print(f"the program under test is not here: {SRC}/repro is missing", file=sys.stderr)
    return True


# -- the BENCHMARK.json command -------------------------------------------


def driver(argv: list[str] | None = None) -> int:
    """``run.py [--force] --workload W --seed N --seconds S --trace 0|1``."""
    parser = argparse.ArgumentParser(prog="benchmarks/wallclock/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--force", action="store_true", help="run even without an idle CPU")
    args = parser.parse_args(argv)
    if _program_missing() or not admit(args.force):
        return 2
    spec = load_spec()
    result = measure(
        args.workload, (TRACED_MODE,) if args.trace else E2E_MODES,
        seed=args.seed, seconds=args.seconds,
    )
    for problem in result["problems"]:
        print(problem, file=sys.stderr)
    if args.trace:
        entries = spec["per_layer"]
        values = {e["name"]: result["per_layer"].get(e["name"], 0) for e in entries}
    else:
        entries = spec["end_to_end"]
        values = {e["name"]: result["metrics"][e["name"]]["value"] for e in entries}
        if not result["metrics"]["events_per_s"]["resolved"]:
            print(f"warning: unresolved timing, harness {result['harness']}", file=sys.stderr)
    if result["attempted"] == 0 or None in values.values():
        print("no measurement: a rep raised where one was needed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries},
    }))
    return 0


# -- `run` ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(result: dict, spec: dict) -> None:
    name = result["workload"]
    print(f"\n== {name} == (one event: one {WORKLOADS[name].event})")
    for line in result["figures"]:
        print(f"  {line}")
    print(f"  sim_digest {' '.join(d[:16] for d in result['sim_digests'])}"
          f"  correct={result['correct']}")
    harness = result["harness"]
    for entry in spec["end_to_end"] + [FAILED_SHARE]:
        metric = result["metrics"][entry["name"]]
        line = f"  {entry['name']:24s} {_fmt(metric['value']):>14s} {entry['unit']}"
        if entry["name"] == "events_per_s":
            if not metric["resolved"]:
                line += (f"   UNRESOLVED ({harness['clean_reps']} clean reps of "
                         f"{harness['planned']} planned)")
            if metric["samples"]:
                q1, q2, q3 = calib.quartiles(metric["samples"])
                line += f"   n={len(metric['samples'])} q1={q1:.6g} q2={q2:.6g} q3={q3:.6g}"
                tail = tail_percentile([result["events"] / r for r in metric["samples"]])
                if tail:
                    line += f" rep p{tail[0]}={tail[1]:.4g}s"
                else:
                    line += " (n<20: no percentile has ten samples beyond it)"
            line += f" noisy={harness['noisy_reps']}"
        print(line)
    for entry in spec["per_layer"]:
        value = result["per_layer"].get(entry["name"], 0)
        print(f"  {entry['name']:34s} {_fmt(value):>14s} {entry['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")


def _sizes(workload) -> dict:
    """A workload's frozen sizes: class constants plus constructor values."""
    constants = {
        key: value
        for cls in reversed(type(workload).__mro__)
        for key, value in vars(cls).items()
        if key.isupper()
    }
    return {**constants, **vars(workload)}


def write_golden(results: list[dict]) -> None:
    golden = {
        "schema": GOLDEN_SCHEMA,
        "note": "seed-0 pins; written only by `run --repin`, which is a benchmark change",
        "sizes": {name: _sizes(w) for name, w in WORKLOADS.items()},
        "workloads": {
            r["workload"]: {
                "sim_digest": r["sim_digests"][0],
                "events": r["events"],
                "py_calls": r["py_calls"],
                "counts": r["counts"],
            }
            for r in results
        },
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fp:
        json.dump(golden, fp, indent=2, sort_keys=True)
        fp.write("\n")


def run_main(args) -> int:
    if _program_missing() or not admit(args.force):
        return 2
    if args.repin and (args.seed != 0 or args.smoke):
        print("--repin pins the canonical input: use --seed 0 at full size", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = float(spec["run_seconds"])
    env = calib.environment(ROOT)
    print(f"env {json.dumps(env)}")
    results = []
    for workload in spec["workloads"]:
        result = measure(
            workload["name"], E2E_MODES + (TRACED_MODE,), seed=args.seed, seconds=seconds,
            repin=args.repin, smoke=args.smoke,
        )
        print_workload(result, spec)
        results.append(result)
    correct = all(r["correct"] for r in results)
    if args.repin:
        if not correct:
            print("not repinning: every workload must pass its invariants", file=sys.stderr)
            return 1
        write_golden(results)
        print(f"\nrepinned {GOLDEN_PATH}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump({
                "schema": RUN_SCHEMA, "env": env, "seed": args.seed, "seconds": seconds,
                "smoke": args.smoke, "workloads": {r["workload"]: r for r in results},
            }, fp, indent=1)
            fp.write("\n")
    print(f"\n{'all outputs correct' if correct else 'SOME OUTPUTS INCORRECT'}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    """``python -m benchmarks.wallclock run|compare``."""
    parser = argparse.ArgumentParser(prog="benchmarks.wallclock")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload and print every metric")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--smoke", action="store_true",
                     help="2 reps per child at smoke sizes, pins not checked")
    run.add_argument("--out", default=None, help="write the run set here (RUN.json)")
    run.add_argument("--repin", action="store_true", help="rewrite golden.json from this run")
    run.add_argument("--force", action="store_true", help="run even without an idle CPU")
    compare = sub.add_parser("compare", help="compare run sets: A.json B.json [A2.json B2.json ...]")
    compare.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_main(args.files, load_spec()["end_to_end"] + [FAILED_SHARE])
    return run_main(args)
