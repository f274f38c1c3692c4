"""The reach ledger: the outermost ``src/repro`` functions no front door enters.

    python -m tests.reach_ledger > tests/fixtures/unreached.txt

Runs :data:`FRONT_DOORS` under a ``sitecustomize`` that records the code object
of every ``call`` profile event in every Python process; it chains, so a
program's own ``sys.setprofile`` profiler still gets exactly its own events.
Prints sorted ``module:qualname lines`` rows (``lines`` from the first decorator
to the end); the list may only shrink, and a new row needs a CHANGES.md line.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every non-pytest command of ci.yml, plus the paper's front doors, as python
#: arguments. ``{t}`` is a fresh directory, so a cache is cold, then warm, as in
#: CI. A leading ``!``: the command must fail; ``-c``: the rest is code.
FRONT_DOORS = (
    "-m repro.chaos.cli soak --schedules 25 --seed-base 1 --trace-out {t}/s.tr --metrics-out {t}/s.m",
    "-W error::RuntimeWarning -m repro.obs.validate {t}/s.tr",
    "-m repro.obs.report {t}/s.m --match chaos.retransmits",
    "-m repro.bench.reliability --out {t}/reliability.json",
    "-m repro.chaos.cli cores --schedules 16 --assert-replay --assert-takeover --assert-mutants-caught"
    " --trace-out {t}/c.tr --metrics-out {t}/c.m",
    "-W error::RuntimeWarning -m repro.obs.validate {t}/c.tr",
    "-m repro.obs.report {t}/c.m --match chaos.blocks_replayed",
    "-m repro.chaos.cli overload --schedules 16 --assert-demotion --assert-eviction --assert-recall"
    " --assert-takeover --trace-out {t}/o.tr --metrics-out {t}/o.m",
    "-W error::RuntimeWarning -m repro.obs.validate {t}/o.tr",
    "-m repro.obs.report {t}/o.m --match chaos.evictions",
    "-m repro.bench.pressure --out {t}/pressure.json",
    "-m benchmarks.wallclock run --smoke --force",
    "-m repro.net.selfcheck --ranks 8 --rounds 3",
    "-m repro.chaos.cli cluster --schedules 8 -v",
    "-m repro.bench.cluster --cache-dir {t}/cluster --out {t}/cluster.json",
    "-m repro.bench.cluster --cache-dir {t}/cluster --out {t}/cluster-warm.json",
    "-m repro.chaos.cli ranks --schedules 8 --cache-dir {t}/ranks -v",
    "-m repro.chaos.cli ranks --schedules 8 --cache-dir {t}/ranks",
    "-m repro.bench.resilience --cache-dir {t}/resilience --out {t}/resilience.json",
    "-m repro.bench.resilience --cache-dir {t}/resilience --out {t}/resilience-warm.json",
    "examples/rank_failure_halo.py",
    "-m repro.fleet.cli sweep --apps AMG,BigFFT,MiniFe --bins 1,32 --rounds 2 --cache-dir {t}/fleet"
    " --report-out {t}/f.json --metrics-out {t}/f.m --trace-out {t}/f.tr",
    "-W error::RuntimeWarning -m repro.obs.validate {t}/f.tr",
    "-m repro.fleet.cli sweep --apps AMG,BigFFT,MiniFe --bins 1,32 --rounds 2 --cache-dir {t}/fleet"
    " --report-out {t}/f-warm.json",
    "-m repro.fleet.cli bench --apps all --bins 1,32,128 --rounds 8 --out {t}/fleet.json"
    " --assert-warm-all-hits --assert-identical",
    "-m repro.obs.overhead --assert-max-overhead 0.05",
    "-m repro.chaos.cli soak --schedules 5 --seed-base 1 --ledger-out {t}/soak.json",
    "-m repro.obs.cli attribution {t}/soak.json",
    "-m repro.obs.cli critical-path {t}/soak.json --top 1",
    "-c from repro.obs.critpath import critical_path; from repro.obs.ledger import LedgerDump; "
    "chains = critical_path(LedgerDump.from_json(open('{t}/soak.json').read()), k=1); "
    "assert chains and all(chain.segments and chain.conserved() for chain in chains)",
    "-c from repro.net.cluster import ClusterSim, cluster_workload; "
    "sim = ClusterSim(cluster_workload('halo', 16, rounds=3), topology='torus'); assert sim.run().ok; "
    "open('{t}/halo.json', 'w').write(sim.recorder.export('halo').to_json())",
    "-m repro.obs.cli attribution {t}/halo.json",
    "-m repro.obs.cli critical-path {t}/halo.json --top 1",
    "-m repro.obs.cli flows {t}/soak.json --out {t}/flows.tr",
    "-W error::RuntimeWarning -m repro.obs.validate {t}/flows.tr",
    "-m repro.obs.overhead --ledger --assert-max-overhead 0.05",
    "-m repro.chaos.health --seed 1 --json-out {t}/health.json --timeline-out {t}/timeline.json",
    "-m repro.chaos.health --seed 2",
    "-m repro.obs.cli timeline {t}/timeline.json --match engine --perfetto {t}/counters.tr",
    "-W error::RuntimeWarning -m repro.obs.validate {t}/counters.tr",
    "!-m repro.obs.cli health {t}/timeline.json --json-out {t}/health-report.json",
    "examples/health_watch.py",
    "-m repro.obs.overhead --sampler --assert-max-overhead 0.05",
    "-m repro.bench.gate BENCH_pressure.json {t}/pressure.json --json-out {t}/gate-p.json",
    "-m repro.bench.gate BENCH_reliability.json {t}/reliability.json --json-out {t}/gate-r.json",
    "-m repro.bench.gate BENCH_fleet.json {t}/fleet.json --json-out {t}/gate-f.json",
    "-c open('{t}/regressed.json', 'w').write(open('{t}/pressure.json').read()"
    ".replace('\"dpa_cycles\": ', '\"dpa_cycles\": 9'))",
    "!-m repro.bench.gate BENCH_pressure.json {t}/regressed.json --quiet",
    "-m repro.tools.reproduce --out {t}/reproduction",
    "-m repro.analyzer.cli --figure 6", "-m repro.analyzer.cli --figure 7",
    "-m repro.analyzer.cli --table 2", "-m repro.analyzer.cli --memory", "-m repro.bench.cli",
)

HOOK = """import atexit, sys, tempfile
_seen, _real = set(), sys.setprofile
_ours = lambda frame, event, arg: event == "call" and _seen.add(frame.f_code)
def setprofile(fn):
    def both(frame, event, arg):
        _ours(frame, event, arg)
        if frame.f_code is not setprofile.__code__:
            fn(frame, event, arg)
        elif event == "call":  # the caller sees the builtin it called, nothing inside
            fn(frame.f_back, "c_call", _real)
    _real(_ours if fn is None else both)
@atexit.register
def _dump():
    _real(None)
    with tempfile.NamedTemporaryFile("w", suffix=".reach", dir=%r, delete=False) as fp:
        fp.writelines(f"{c.co_filename}:{c.co_firstlineno}\\n" for c in _seen)
sys.setprofile = setprofile
_real(_ours)
"""


def outermost_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (``module:qualname``, lines) of each function no function encloses."""
    found = {}

    def visit(node, path, name):
        for child in node.body:
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{name}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = (f"{name}{child.name}", child.end_lineno - first + 1)

    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{module}:")
    return found


def entered() -> set[tuple[str, int]]:
    """(file, first line) of every code object a front door entered."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(HOOK % tmp)
        env = {**os.environ, "PYTHONPATH": f"{tmp}{os.pathsep}{SRC}"}
        for door in FRONT_DOORS:
            door = door.replace("{t}", tmp)
            args = ["-c", door[3:]] if door.startswith("-c ") else door.lstrip("!").split()
            done = subprocess.run([sys.executable, *args], cwd=SRC.parent, env=env, capture_output=True)
            if (done.returncode != 0) != door.startswith("!"):
                sys.exit(f"{door!r} exited {done.returncode}:\n{done.stderr.decode()[-2000:]}")
        rows = [row for dump in Path(tmp).glob("*.reach") for row in dump.read_text().splitlines()]
    return {(path, int(line)) for path, _, line in (row.rpartition(":") for row in rows)}


def main() -> None:
    seen = entered()
    unreached = sorted(row for key, row in outermost_functions().items() if key not in seen)
    print("\n".join(f"{name} {lines}" for name, lines in unreached))
    print(f"{len(unreached)} unreached, {sum(n for _, n in unreached)} lines", file=sys.stderr)


if __name__ == "__main__":
    main()
