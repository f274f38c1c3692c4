"""Import-footprint guard: each path loads only the packages it uses.

scipy is not a runtime dependency of ``repro.analyzer``'s Fig. 7 path
(it is dev-only), and every fleet worker pays for what the package
imports at module level. Each case runs in a fresh interpreter, so
nothing an earlier test imported can hide a regression:

* blocked — scipy is set to ``None`` in ``sys.modules`` before anything
  is imported; a module-level import of it fails, and the traceback in
  the assertion message names the importing file;
* unblocked — a ``sys.meta_path`` witness records the ``repro`` frame
  that first imports it, so a leak names its culprit.

The same witness guards more edges. Experiment grids run inline, so no
front door may load a process pool (``multiprocessing`` or
``concurrent.futures``), and the trace package stands below the fleet:
``import repro.traces`` loads no ``repro.fleet`` module. numpy loads only
where a seeded stream is drawn or a percentile is taken: the Fig. 8
ping-pong, the cluster halo, the engine and the RDMA protocol import
none of it, and the ping-pong and halo runs give the same results with
numpy blocked, while ``make_rng`` still needs it. Package ``__init__``s
resolve their names on first use, so importing every package loads no
other module (but the trace generator's), and the ping-pong, the Fig. 7
sweep and the cluster halo each leave the layers they never call unloaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.util.rng import make_rng

_PROBE = """
import json, os, sys, traceback

HEAVY = ("scipy",)
PKG = f"{os.sep}repro{os.sep}"
culprits = {}


def loaded():
    return [name for name in HEAVY if sys.modules.get(name) is not None]


class Witness:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in HEAVY and top not in culprits:
            ours = [f for f in traceback.extract_stack() if PKG in f.filename]
            culprits[top] = f"{ours[-1].filename}:{ours[-1].lineno}" if ours else "?"
        return None


if BLOCK:
    for name in HEAVY:
        sys.modules[name] = None
else:
    sys.meta_path.insert(0, Witness())

import repro.analyzer
import repro.analyzer.cli
from repro.analyzer import sweep_applications

results = sweep_applications(names=["AMG"], bins_list=(1, 32), rounds=2)
out = {
    "bins": sorted(results["AMG"]),
    "after_sweep": {name: culprits.get(name) for name in loaded()},
}
print(json.dumps(out))
"""


def _fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter that imports this ``repro``;
    the JSON it prints."""
    src = Path(repro.__file__).resolve().parents[1]
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _probe(block: bool) -> dict:
    return _fresh(f"BLOCK = {block}\n{_PROBE}")


def test_fig7_path_runs_with_scipy_blocked():
    """``import repro.analyzer``, the CLI module and a small sweep all
    work where scipy cannot be imported."""
    out = _probe(block=True)
    assert out["bins"] == [1, 32]
    assert out["after_sweep"] == {}


@pytest.fixture(scope="module")
def unblocked() -> dict:
    return _probe(block=False)


def test_fig7_path_leaves_them_unloaded(unblocked):
    """Installed but unused: the sweep does not load it."""
    assert unblocked["bins"] == [1, 32]
    assert unblocked["after_sweep"] == {}, f"loaded by: {unblocked['after_sweep']}"


_WITNESS = """
import importlib, json, os, sys, traceback

PKG = f"{os.sep}repro{os.sep}"
HELPER = os.path.join("repro", "util", "exports.py")
culprits = {}


# The repro frame that asked for the import; the lazy-export helper only
# relays a name's first use, so its frames are skipped.
def culprit():
    ours = [
        f for f in traceback.extract_stack()
        if PKG in f.filename and not f.filename.endswith(HELPER)
    ]
    return f"{ours[-1].filename}:{ours[-1].lineno}" if ours else "?"


class Witness:
    def find_spec(self, name, path=None, target=None):
        hit = next((p for p in FORBIDDEN if name == p or name.startswith(p + ".")), None)
        if hit is not None and hit not in culprits:
            culprits[hit] = culprit()
        return None
"""

_EDGE_PROBE = _WITNESS + """
sys.meta_path.insert(0, Witness())
importlib.import_module(MODULE)
print(json.dumps(culprits))
"""

_POOLS = ("multiprocessing", "concurrent.futures")
_SIMULATOR = (*_POOLS, "numpy")
# Package ``__init__``s import nothing until a name is used, so each front
# door loads only the layers it runs: the Fig. 8 ping-pong drives the engine
# and the DPA cost model, the Fig. 7 sweep replays traces without any
# matcher, and the cluster halo runs RDMA over the fabric without the DPA.
_UNUSED_BY_PINGPONG = (
    "repro.recovery", "repro.rdma", "repro.traces",
    "repro.dpa.machine", "repro.obs.ledger", "repro.obs.validate",
)
_UNUSED_BY_SWEEP = (
    "repro.core.engine", "repro.dpa.machine", "repro.recovery", "repro.rdma", "repro.matching",
)
_UNUSED_BY_CLUSTER = (
    "repro.dpa", "repro.recovery", "repro.matching", "repro.obs.health", "repro.obs.validate",
)


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("repro.bench.pingpong", (*_SIMULATOR, *_UNUSED_BY_PINGPONG)),
        ("repro.net.cluster", (*_SIMULATOR, *_UNUSED_BY_CLUSTER)),
        ("repro.analyzer.sweep", (*_POOLS, *_UNUSED_BY_SWEEP)),
        ("repro.chaos.cli", _POOLS),
        ("repro.traces", ("repro.fleet",)),
        ("repro.core.engine", _SIMULATOR),
        ("repro.rdma.protocol", _SIMULATOR),
    ],
)
def test_import_loads_no_forbidden_module(module, forbidden):
    """Each import, in a fresh interpreter, loads none of ``forbidden``;
    a leak names the ``file:line`` that first imported it."""
    loaded = _fresh(f"MODULE = {module!r}\nFORBIDDEN = {forbidden!r}\n{_EDGE_PROBE}")
    assert loaded == {}, f"import {module} loaded: {loaded}"


_RUN_PROBE = _WITNESS + """
import hashlib

if BLOCK:
    sys.modules["numpy"] = None
else:
    sys.meta_path.insert(0, Witness())

from repro.bench.pingpong import PingPongBench
from repro.bench.scenarios import SCENARIOS
from repro.net.cluster import ClusterSim, cluster_workload
from repro.util.rng import make_rng


def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


bench = PingPongBench(k=100, repetitions=1)
out = {
    "nc": digest(bench.run_optimistic(SCENARIOS[0]).to_dict()),
    "wc": digest(bench.run_optimistic(SCENARIOS[1]).to_dict()),
    "halo": digest(ClusterSim(cluster_workload("halo", 16, rounds=2)).run().to_dict()),
    "loaded": dict(culprits),
}
try:
    out["make_rng"] = make_rng(0).integers(0, 1 << 30, size=2).tolist()
except ImportError:
    out["make_rng"] = "ImportError"
print(json.dumps(out))
"""


def test_pingpong_and_halo_run_without_numpy():
    """With numpy blocked, an NC and a WC ping-pong and a 16-rank halo
    give the unblocked interpreter's results, and the unblocked runs load
    no numpy either; ``make_rng`` still needs it (lazy, not gone)."""
    blocked, unblocked = (
        _fresh(f"BLOCK = {block}\nFORBIDDEN = ('numpy',)\n{_RUN_PROBE}") for block in (True, False)
    )
    assert unblocked["loaded"] == {}, f"numpy loaded by: {unblocked['loaded']}"
    for run in ("nc", "wc", "halo"):
        assert blocked[run] == unblocked[run], run
    assert blocked["make_rng"] == "ImportError"
    assert unblocked["make_rng"] == make_rng(0).integers(0, 1 << 30, size=2).tolist()


_PACKAGES_PROBE = _WITNESS + """
GENERATOR = os.path.join("repro", "traces", "synthetic", "apps.py")


class AnyModule:
    def find_spec(self, name, path=None, target=None):
        if (name == "repro" or name.startswith("repro.")) and name not in ALLOWED:
            if not any(f.filename.endswith(GENERATOR) for f in traceback.extract_stack()):
                culprits.setdefault(name, culprit())
        return None


sys.meta_path.insert(0, AnyModule())
for package in PACKAGES:
    importlib.import_module(package)
print(json.dumps(culprits))
"""


def test_importing_every_package_loads_no_module():
    """One fresh interpreter imports all the packages and loads no other
    ``repro`` module but the lazy-export helper: a package's names load
    their defining modules on first use, not on ``import``. The one
    exception is ``repro.traces.synthetic.generate`` (and what its module
    imports), which the wall-clock benchmark's tracer wraps in place."""
    root = Path(repro.__file__).resolve().parent
    packages = sorted(
        ".".join(("repro", *init.parent.relative_to(root).parts))
        for init in root.rglob("__init__.py")
    )
    assert len(packages) == 19, packages
    allowed = (*packages, "repro.util.exports", "repro.traces.synthetic.apps")
    loaded = _fresh(f"PACKAGES = {packages!r}\nALLOWED = {allowed!r}\n{_PACKAGES_PROBE}")
    direct = {name: at for name, at in loaded.items() if "__init__.py:" in at}
    assert loaded == {}, f"{len(loaded)} modules loaded, by package __init__s: {direct or loaded}"
