"""Result codec: every job result is the image of one JSON payload.

The scheduler never hands a driver a "raw" result object — whether a
job just ran or was answered from the cache, its result is encoded to
a JSON payload and decoded back. That single invariant is what makes
caching transparent and warm reruns byte-identical to cold ones: there
is exactly one representation.

Result classes participate by exposing ``to_dict``/``from_dict`` (and
``to_json``/``from_json`` with an explicit ``schema`` version field —
see :class:`repro.core.stats.EngineStats` et al.). Pure JSON literals
pass through under the ``literal`` tag. Additional types register via
:func:`register_result_type` (custom job kinds in tests or drivers).
"""

from __future__ import annotations

import importlib
from typing import Any, Mapping

from repro.fleet.job import ensure_literal

__all__ = ["RESULT_SCHEMA", "encode_result", "decode_result", "register_result_type"]

RESULT_SCHEMA = "repro.fleet.result/v1"

#: tag -> (module, attribute); resolved lazily so ``import repro.fleet``
#: does not pull the analyzer/chaos/bench stacks.
_BUILTIN: dict[str, tuple[str, str]] = {
    "AppAnalysis": ("repro.analyzer.statistics", "AppAnalysis"),
    "ChaosReport": ("repro.chaos.harness", "ChaosReport"),
    "ClusterReport": ("repro.net.cluster", "ClusterReport"),
    "EngineStats": ("repro.core.stats", "EngineStats"),
    "GateVerdict": ("repro.bench.gate", "GateVerdict"),
    "LedgerDump": ("repro.obs.ledger", "LedgerDump"),
    "RateResult": ("repro.bench.pingpong", "RateResult"),
    "ResilienceReport": ("repro.resilience.cluster", "ResilienceReport"),
}
_EXTRA: dict[str, type] = {}


def register_result_type(tag: str, cls: type) -> None:
    """Teach the codec a new result class (must have to/from_dict)."""
    if not callable(getattr(cls, "to_dict", None)) or not callable(
        getattr(cls, "from_dict", None)
    ):
        raise TypeError(f"{cls!r} must define to_dict() and from_dict()")
    _EXTRA[tag] = cls


def _resolve(tag: str) -> type:
    if tag in _EXTRA:
        return _EXTRA[tag]
    entry = _BUILTIN.get(tag)
    if entry is None:
        raise KeyError(f"unknown result type {tag!r}")
    module, attr = entry
    return getattr(importlib.import_module(module), attr)


def encode_result(result: Any) -> dict:
    """Encode a job result into its canonical JSON payload."""
    tag = type(result).__name__
    if tag in _EXTRA or tag in _BUILTIN:
        cls = _resolve(tag)
        if isinstance(result, cls):
            return {"schema": RESULT_SCHEMA, "type": tag, "data": result.to_dict()}
    try:
        ensure_literal(result, "result")
    except TypeError as exc:
        raise TypeError(
            f"job result {type(result).__name__} is neither a registered "
            f"result type nor a JSON literal: {exc}"
        ) from None
    return {"schema": RESULT_SCHEMA, "type": "literal", "data": result}


def decode_result(payload: Mapping[str, Any]) -> Any:
    """Decode a payload produced by :func:`encode_result`."""
    schema = payload.get("schema", RESULT_SCHEMA)
    if schema != RESULT_SCHEMA:
        raise ValueError(f"unsupported result schema {schema!r}")
    tag = payload["type"]
    if tag == "literal":
        return payload["data"]
    return _resolve(tag).from_dict(payload["data"])
