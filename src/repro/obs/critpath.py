"""Critical-path analysis over a finished run's ledger.

A run's *makespan* is the span from the first record opening to the
last record completing. The analyzer reconstructs, for each of the
top-k latest-completing messages, a **contiguous causal chain** of
segments covering ``[earliest open, that completion]``:

* inside a record, the chain follows its own phase segments (the
  message was *doing* something — in a bounce buffer, in the UMQ,
  being retransmitted);
* at a record's opening it jumps to the **program-order predecessor**
  — the record with the latest opening at or before that instant
  (ties by mid). This is the serialization edge of the simulated
  world: what the pipeline was occupied with while this message did
  not yet exist;
* if the predecessor completed before the jump instant, the gap is a
  ``via="program-order"`` segment (scheduling idle between bursts).

Because each step covers a contiguous earlier interval and the walk
terminates at the globally earliest opening, segment durations sum to
**exactly** the chain's span — the top chain's length equals the
makespan by construction.

Causal annotations recorded by the layers (``retransmit``, ``rnr``,
``timeout``, ``rollback``, ``evicted`` …) are
attached to the segment containing their timestamp, so the rendered
chain explains *why* each hop was slow, not just where time went.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.obs.ledger import LedgerDump, MessageRecord

__all__ = ["ChainSegment", "CriticalChain", "critical_path", "render_chains"]


@dataclass(slots=True)
class ChainSegment:
    """One hop of a causal chain: ``[t0, t1)`` attributed to a phase."""

    t0: float
    t1: float
    mid: int
    phase: str
    label: str = ""
    #: "program-order" for predecessor-gap hops, "" for own segments.
    via: str = ""
    #: annotation names (with counts folded in) inside this window.
    events: list[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(slots=True)
class CriticalChain:
    """A contiguous causal chain ending at one completion."""

    scenario: str
    end_mid: int
    start: float
    end: float
    segments: list[ChainSegment] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.end - self.start

    def conserved(self) -> bool:
        """Segment durations span the chain exactly (float-rounding slack
        only — the walk covers a contiguous interval by construction)."""
        total = math.fsum(s.duration for s in self.segments)
        return math.isclose(total, self.total, rel_tol=1e-12, abs_tol=1e-12)


def _events_in(rec: MessageRecord, t0: float, t1: float) -> list[str]:
    names: dict[str, int] = {}
    for ts, name, _ in rec.events:
        if t0 <= ts <= t1:
            names[name] = names.get(name, 0) + 1
    return [n if c == 1 else f"{n}x{c}" for n, c in names.items()]


def _clipped_segments(
    rec: MessageRecord, lo: float, hi: float, via: str = ""
) -> list[ChainSegment]:
    """Record segments clipped to ``[lo, hi]`` (zero-length dropped)."""
    out: list[ChainSegment] = []
    for t0, t1, phase in rec.segments():
        a, b = max(t0, lo), min(t1, hi)
        if b > a:
            out.append(
                ChainSegment(
                    t0=a,
                    t1=b,
                    mid=rec.mid,
                    phase=phase,
                    label=rec.label,
                    via=via,
                    events=_events_in(rec, a, b),
                )
            )
    return out


def _build_chain(
    scenario: str,
    ordered: list[MessageRecord],
    opens: list[tuple[float, int]],
    target: MessageRecord,
) -> CriticalChain:
    """Walk backward from ``target``'s completion to the earliest open."""
    global_min = opens[0][0]
    segments: list[ChainSegment] = []
    cur = target
    hi = cur.end_ts
    while True:
        lo = cur.open_ts
        segments.extend(reversed(_clipped_segments(cur, lo, hi)))
        # Program-order predecessor: latest (open, mid) strictly below
        # ours. Strict lexicographic decrease guarantees termination.
        idx = bisect_right(opens, (cur.open_ts, cur.mid)) - 2
        if idx < 0:
            break
        pred = ordered[idx]
        if pred.end_ts < lo:
            # The pipeline was idle between pred's completion and this
            # record's birth: a scheduling gap on the program-order edge.
            segments.append(
                ChainSegment(
                    t0=pred.end_ts,
                    t1=lo,
                    mid=pred.mid,
                    phase="idle",
                    label=pred.label,
                    via="program-order",
                )
            )
        hi = min(pred.end_ts, lo)
        cur = pred
    segments.reverse()
    return CriticalChain(
        scenario=scenario,
        end_mid=target.mid,
        start=global_min,
        end=target.end_ts,
        segments=segments,
    )


def critical_path(
    dump: LedgerDump, *, scenario: str | None = None, k: int = 3
) -> list[CriticalChain]:
    """Top-k causal chains per scenario, longest (latest-ending) first.

    The first chain of each scenario spans the scenario's full
    makespan exactly (``chain.total == max end - min open``).
    """
    chains: list[CriticalChain] = []
    for name in sorted(dump.scenarios):
        if scenario is not None and name != scenario:
            continue
        records = [rec for _, rec in dump.iter_records(name) if rec.transitions]
        if not records:
            continue
        ordered = sorted(records, key=lambda r: (r.open_ts, r.mid))
        opens = [(r.open_ts, r.mid) for r in ordered]
        enders = sorted(records, key=lambda r: (r.end_ts, r.mid), reverse=True)
        for target in enders[: max(1, k)]:
            chains.append(_build_chain(name, ordered, opens, target))
    return chains


def render_chains(chains: list[CriticalChain], *, width: int = 8) -> str:
    lines: list[str] = []
    for chain in chains:
        label = _end_label(chain)
        ident = f" ({label})" if label else ""
        conserved = "conserved" if chain.conserved() else "NOT CONSERVED"
        lines.append(
            f"scenario {chain.scenario}: chain -> mid {chain.end_mid}{ident} "
            f"span [{chain.start:g}, {chain.end:g}] total {chain.total:g} "
            f"({len(chain.segments)} segments, {conserved})"
        )
        for seg in chain.segments:
            who = seg.label or f"mid{seg.mid}"
            via = f" via={seg.via}" if seg.via else ""
            notes = f"  [{', '.join(seg.events)}]" if seg.events else ""
            lines.append(
                f"  {seg.t0:>{width}g} +{seg.duration:<{width}g} "
                f"{seg.phase:>10} {who}{via}{notes}"
            )
    return "\n".join(lines)


def _end_label(chain: CriticalChain) -> str:
    for seg in reversed(chain.segments):
        if seg.mid == chain.end_mid and seg.label:
            return seg.label
    return ""
