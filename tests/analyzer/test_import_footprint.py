"""Import-footprint guard: the Fig. 7 path loads neither scipy nor networkx.

Neither package is a runtime dependency of ``repro.analyzer``'s Fig. 7
path (scipy is dev-only; networkx is needed only where a communication
graph is built), and every fleet worker pays for what the package
imports at module level. Each case runs in a fresh interpreter, so
nothing an earlier test imported can hide a regression:

* blocked — both packages are set to ``None`` in ``sys.modules`` before
  anything is imported; a module-level import of either fails, and the
  traceback in the assertion message names the importing file;
* unblocked — a ``sys.meta_path`` witness records the ``repro`` frame
  that first imports either package, so a leak names its culprit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_PROBE = """
import json, os, sys, traceback

HEAVY = ("scipy", "networkx")
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
from repro.analyzer import graph_stats, sweep_applications
from repro.traces.synthetic import generate

results = sweep_applications(names=["AMG"], bins_list=(1, 32), rounds=2)
out = {
    "bins": sorted(results["AMG"]),
    "after_sweep": {name: culprits.get(name) for name in loaded()},
}
if not BLOCK:
    try:
        graph_stats(generate("AMG", rounds=2))
    except ImportError:  # networkx not installed: the test skips
        pass
    out["after_graph_stats"] = loaded()
print(json.dumps(out))
"""


def _probe(block: bool) -> dict:
    src = Path(repro.__file__).resolve().parents[1]
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", f"BLOCK = {block}\n{_PROBE}"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fig7_path_runs_with_scipy_and_networkx_blocked():
    """``import repro.analyzer``, the CLI module and a small sweep all
    work where neither package can be imported."""
    out = _probe(block=True)
    assert out["bins"] == [1, 32]
    assert out["after_sweep"] == {}


@pytest.fixture(scope="module")
def unblocked() -> dict:
    return _probe(block=False)


def test_fig7_path_leaves_them_unloaded(unblocked):
    """Installed but unused: the sweep loads neither."""
    assert unblocked["bins"] == [1, 32]
    assert unblocked["after_sweep"] == {}, f"loaded by: {unblocked['after_sweep']}"


def test_graph_stats_loads_networkx_and_only_networkx(unblocked):
    pytest.importorskip("networkx")
    assert unblocked["after_graph_stats"] == ["networkx"]
