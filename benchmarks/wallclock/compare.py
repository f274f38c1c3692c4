"""``compare A.json B.json [A2.json B2.json ...]``: one verdict per
(end-to-end metric, workload), by the bound ``BENCHMARK.json`` fixes.

A is the parent side, B the change; each file is one run set, so N pairs
give each side N runs. Where the run-to-run spread (the distance between a
side's quartiles) is wider than the bound the row is ``unresolved``, not
``unchanged`` - unless every run of one side beats every run of the other.
One run per side carries no run-to-run spread: the verdict is then by the
bound alone. Run on two run sets of one commit, the same command is the
"do they agree" check.
"""

from __future__ import annotations

import json
import statistics

from .calib import quartiles

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")


def verdict(a: list[float | None], b: list[float | None], *, better: str, bound: float) -> dict:
    """Judge one metric on one workload from each side's per-run values
    (None: that run's timing was unresolved, or its measuring rep failed)."""
    row: dict = {"verdict": "unresolved"}
    if None in a or None in b:
        return row
    a_med, b_med = statistics.median(a), statistics.median(b)
    (a_q1, _, a_q3), (b_q1, _, b_q3) = quartiles(a), quartiles(b)
    row.update(a=a_med, a_q1=a_q1, a_q3=a_q3, b=b_med, b_q1=b_q1, b_q3=b_q3)
    worse_by = (b_med - a_med) if better == "lower" else (a_med - b_med)  # > 0: B is worse
    scale = abs(a_med)
    allowed = bound * scale
    steady = max(a_q3 - a_q1, b_q3 - b_q1) <= allowed
    if better == "lower":
        b_wins, a_wins = max(b) < min(a), max(a) < min(b)
    else:
        b_wins, a_wins = min(b) > max(a), min(a) > max(b)
    row["worse_by"] = worse_by / scale if scale else worse_by
    if worse_by > allowed:
        row["verdict"] = "regressed" if steady or a_wins else "unresolved"
    elif -worse_by > allowed:
        row["verdict"] = "improved" if steady or b_wins else "unresolved"
    else:
        row["verdict"] = "unchanged" if steady else "unresolved"
    return row


def compare(a_sets: list[dict], b_sets: list[dict], metrics: list[dict]) -> list[dict]:
    rows = []
    for entry in metrics:
        for workload in a_sets[0]["workloads"]:  # every run set has every workload
            def pick(sets):
                cells = [s["workloads"][workload]["metrics"][entry["name"]] for s in sets]
                return [c["value"] if c.get("resolved", True) else None for c in cells]

            row = verdict(pick(a_sets), pick(b_sets), better=entry["better"], bound=entry["bound"])
            rows.append({"metric": entry["name"], "workload": workload, "unit": entry["unit"],
                         "bound": entry["bound"], **row})
    return rows


def exact_rows(a_sets: list[dict], b_sets: list[dict]) -> list[str]:
    """Facts that must be equal, not close: digests, counts, call counts."""
    lines = []
    for workload, a in a_sets[0]["workloads"].items():
        for other in a_sets[1:] + b_sets:
            if other["seed"] != a_sets[0]["seed"]:
                continue  # other inputs: nothing must be equal
            b = other["workloads"][workload]
            for key in ("sim_digests", "counts", "py_calls", "events"):
                if a.get(key) != b.get(key):
                    lines.append(f"{workload}: {key} differ")
    return lines


def compare_main(files: list[str], metrics: list[dict]) -> int:
    if len(files) % 2:
        print("compare takes pairs of files: A.json B.json [A2.json B2.json ...]")
        return 2
    sets = []
    for path in files:
        with open(path, encoding="utf-8") as fp:
            sets.append(json.load(fp))
    a_sets, b_sets = sets[0::2], sets[1::2]
    rows = compare(a_sets, b_sets, metrics)
    print(f"{'metric':20s} {'workload':13s} {'A median [q1, q3]':>38s} {'B median [q1, q3]':>38s}"
          f" {'B worse by':>10s} {'bound':>6s}  verdict")
    for row in rows:
        if "a" in row:
            a = f"{row['a']:.6g} [{row['a_q1']:.6g}, {row['a_q3']:.6g}]"
            b = f"{row['b']:.6g} [{row['b_q1']:.6g}, {row['b_q3']:.6g}]"
            worse = f"{100 * row['worse_by']:+.2f}%"
        else:
            a = b = worse = "-"
        print(f"{row['metric']:20s} {row['workload']:13s} {a:>38s} {b:>38s} {worse:>10s}"
              f" {100 * row['bound']:5.1f}%  {row['verdict']}")
    inexact = exact_rows(a_sets, b_sets)
    for line in inexact:
        print(f"NOT EXACT  {line}")
    tally = {v: sum(1 for row in rows if row["verdict"] == v) for v in VERDICTS}
    print("  ".join(f"{v}: {n}" for v, n in tally.items()) + f"  not exact: {len(inexact)}")
    return 1 if tally["regressed"] else 0
