"""Content-addressed on-disk result cache.

Layout: ``<root>/<digest[:2]>/<digest>.json``, one envelope per entry::

    {"schema": "repro.fleet.cache/v1",
     "digest": "...",
     "job": JobSpec.to_dict(),
     "result": codec payload}

The digest already encodes the job spec *and* the code-version salt
(:meth:`repro.fleet.job.JobSpec.digest`), so a lookup is a single
``open``. Writes are atomic (temp file + ``os.replace``) so a killed
sweep, or two sharing a directory, can never leave a half-written
entry that poisons later runs; unreadable or schema-mismatched entries
degrade to cache misses.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.fleet.job import JobSpec

__all__ = ["CACHE_SCHEMA", "ResultCache"]

CACHE_SCHEMA = "repro.fleet.cache/v1"


class ResultCache:
    """One cache directory plus hit/miss/write accounting."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> dict | None:
        """The cached result payload for ``digest``, or None."""
        path = self.path_for(digest)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != CACHE_SCHEMA
            or envelope.get("digest") != digest
            or "result" not in envelope
        ):
            self.misses += 1
            return None
        self.hits += 1
        return envelope["result"]

    def put(self, digest: str, spec: JobSpec, result: Mapping[str, Any]) -> Path:
        """Store one result payload atomically."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema": CACHE_SCHEMA,
            "digest": digest,
            "job": spec.to_dict(),
            "result": dict(result),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                json.dump(envelope, fp, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).is_file()

    def entries(self) -> Iterator[dict]:
        """Iterate stored envelopes (sorted by digest; skips corrupt)."""
        for path in sorted(self.root.glob("??/*.json")):
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(envelope, dict) and envelope.get("schema") == CACHE_SCHEMA:
                yield envelope

    def count(self) -> int:
        return sum(1 for _ in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        for path in self.root.glob("??/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}
