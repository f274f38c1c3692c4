"""Noise control: the calibration loop, the clean-rep rule, the env block.

Raw wall time on a shared 2-core box rose 60 % under two busy neighbours
while the ratio to an interleaved fixed pure-Python loop moved far less, so
every rep is bracketed by that loop and only reps whose brackets both ran
near the run's fastest bracket feed a timing metric.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time

#: The calibration loop is timed in slices and the median slice is reported:
#: on the seed machine a third of single 15 ms loops read more than 8 % slow
#: with nothing else running (one preemption), while the median of three
#: 5 ms slices stayed within 3 % and still read 80 % slow under two busy
#: neighbours.
CALIB_SLICES = 3
CALIB_SLICE_ITERS = 45_000
#: A bracket within this share of the run's fastest bracket is quiet.
CLEAN_TOLERANCE = 0.08
#: Share of the planned reps that must be clean for a resolved timing.
CLEAN_SHARE = 0.75
#: A run may extend to this multiple of its planned reps to get them.
EXTEND = 1.5


def _echo():
    """The interpreter work the simulator is made of: generator resumes,
    dict stores, list appends and trims."""
    table: dict[int, int] = {}
    ring: list[int] = []
    value = yield 0
    while True:
        table[value & 255] = value
        ring.append(value)
        if len(ring) > 64:
            del ring[:32]
        value = yield len(table)


def calibrate() -> float:
    """Run the fixed loop once; host seconds it took (about 15 ms on the
    seed machine), as the median slice times the slice count."""
    gen = _echo()
    next(gen)
    send = gen.send
    slices = []
    for _ in range(CALIB_SLICES):
        start = time.perf_counter()
        for i in range(CALIB_SLICE_ITERS):
            send(i)
        slices.append(time.perf_counter() - start)
    gen.close()
    return statistics.median(slices) * CALIB_SLICES


def clean_flags(brackets: list[float]) -> list[bool]:
    """Rep ``i`` ran between ``brackets[i]`` and ``brackets[i + 1]``; it is
    clean when both are within the tolerance of the fastest bracket."""
    if len(brackets) < 2:
        return []
    limit = min(brackets) * (1.0 + CLEAN_TOLERANCE)
    quiet = [b <= limit for b in brackets]
    return [quiet[i] and quiet[i + 1] for i in range(len(brackets) - 1)]


def clean_needed(planned: int) -> int:
    """Clean reps a run of ``planned`` reps needs to be resolved."""
    return math.ceil(planned * CLEAN_SHARE)


def rep_limit(planned: int) -> int:
    """Most reps a run of ``planned`` reps may take while extending."""
    return int(planned * EXTEND)


def fast_quartile(times: list[float]) -> float:
    """The lower quartile of some host times: the estimator of every timing
    metric here.

    Interference on a shared host is one-sided - it only ever slows a rep -
    and comes in phases the 15 ms brackets cannot see from inside a 3 s rep.
    Over ten runs in such a phase the across-run spread of the median clean
    rep was 6.1 % / 4.1 % / 12.2 % / 8.8 % (the four workloads) and of the
    lower quartile 3.8 % / 1.6 % / 5.9 % / 7.6 %; of three set-ups it is the
    fastest.

    Of fewer than three samples it is the faster one: ``quantiles`` would
    extrapolate below both (to ``1.25 * min - 0.25 * max``, negative once
    ``max >= 5 * min``), a time no rep took."""
    if len(times) < 3:
        return min(times)
    return quartiles(times)[0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``statistics.quantiles(values, n=4)``; a single value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root: str) -> dict:
    """What a reader needs to judge whether two run sets are comparable."""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", ""),
        "git_sha": git_sha(root),
    }


def oversubscribed() -> str | None:
    """Why this machine cannot give the benchmark a CPU of its own, or None.

    ``BENCH_fleet.json`` records ``speedup: 0.391`` measured with four jobs
    on one CPU, which measures nothing; a timing run needs an idle CPU.
    """
    cpus = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    if load >= cpus:
        return f"1-min load {load:.2f} >= {cpus} usable CPUs: no idle CPU to time on"
    return None
