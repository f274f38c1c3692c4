"""Run one job: resolve its kind, call it, encode the result.

The scheduler calls :func:`run_spec` for every job the cache cannot
answer. The result leaves as a :mod:`repro.fleet.codec` payload — the
one shape a cache entry holds — so a fresh result and a cached one
decode alike.
"""

from __future__ import annotations

from repro.fleet.codec import encode_result
from repro.fleet.job import JobSpec
from repro.fleet.kinds import resolve_kind

__all__ = ["run_spec"]


def run_spec(spec: JobSpec) -> dict:
    """Run one job to completion; its result as a codec payload."""
    result = resolve_kind(spec.kind).fn(dict(spec.params), spec.seed)
    return encode_result(result)
