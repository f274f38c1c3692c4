"""The fleet run report: job accounting with a stable JSON form.

One :class:`FleetReport` summarizes one :func:`repro.fleet.run_jobs`
run — how many jobs executed, were answered from cache, or were
quarantined, plus per-job records. The JSON form
carries a schema version so downstream tooling (CI assertions,
``BENCH_fleet.json``) can reject layouts it does not understand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["REPORT_SCHEMA", "FleetReport"]

REPORT_SCHEMA = "repro.fleet.report/v2"


@dataclass(slots=True)
class FleetReport:
    """Aggregated outcome of one :func:`repro.fleet.run_jobs` run."""

    SCHEMA = REPORT_SCHEMA

    total: int = 0
    executed: int = 0
    cached: int = 0
    quarantined: int = 0
    #: Human-readable ids (``#index kind seed=N``) of quarantined jobs,
    #: in job order — so a sweep's exit status is attributable from the
    #: report alone, without digging through per-job records.
    quarantined_ids: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: Cache accounting for this run (hits/misses/writes), if caching.
    cache: dict[str, int] | None = None
    #: Per-job records: index, kind, digest, status, latency_s, error.
    records: list[dict] = field(default_factory=list)

    @classmethod
    def from_outcomes(
        cls,
        outcomes,
        *,
        wall_s: float,
        cache_stats: Mapping[str, int] | None = None,
    ) -> "FleetReport":
        records = [
            {
                "index": outcome.index,
                "kind": outcome.spec.kind,
                "digest": outcome.digest,
                "status": outcome.status,
                "latency_s": outcome.latency_s,
                "error": outcome.error,
            }
            for outcome in outcomes
        ]
        return cls(
            total=len(records),
            executed=sum(1 for r in records if r["status"] == "ok"),
            cached=sum(1 for r in records if r["status"] == "cached"),
            quarantined=sum(1 for r in records if r["status"] == "quarantined"),
            quarantined_ids=[
                f"#{o.index} {o.spec.kind} seed={o.spec.seed}"
                for o in outcomes
                if o.status == "quarantined"
            ],
            wall_s=wall_s,
            cache=dict(cache_stats) if cache_stats is not None else None,
            records=records,
        )

    @property
    def ok(self) -> bool:
        return self.quarantined == 0

    def summary(self) -> str:
        parts = [
            f"{self.total} jobs",
            f"{self.executed} executed",
            f"{self.cached} cached",
        ]
        if self.quarantined:
            shown = ", ".join(self.quarantined_ids[:3])
            more = ", ..." if self.quarantined > 3 else ""
            parts.append(f"{self.quarantined} quarantined [{shown}{more}]")
        parts.append(f"{self.wall_s:.2f}s")
        return ", ".join(parts)

    # -- JSON round-trip ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "quarantined": self.quarantined,
            "quarantined_ids": list(self.quarantined_ids),
            "wall_s": self.wall_s,
            "cache": self.cache,
            "records": list(self.records),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetReport":
        return cls(**{k: payload[k] for k in cls.__dataclass_fields__ if k in payload})

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(
            {"schema": self.SCHEMA, **self.to_dict()}, indent=indent, sort_keys=True
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FleetReport":
        payload = json.loads(text)
        schema = payload.get("schema", cls.SCHEMA)
        if schema != cls.SCHEMA:
            raise ValueError(f"unsupported schema {schema!r}, expected {cls.SCHEMA!r}")
        return cls.from_dict(payload)
