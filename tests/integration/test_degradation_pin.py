"""Degradation-ladder pin: what the four front-ends report, byte for byte.

Everything here is *simulated* output of the engine<->host takeover /
re-offload / block-replay / parked-store machinery — ``ChaosReport``
JSON for the chaos lanes that arm it, and for ``DpaMachine`` its run
report, engine/recovery/pressure stats, the match-event stream, and
sha-256 digests of the tracer's events and of the flight ledger. The fixtures under
``fixtures/`` were generated at the commit *before* that machinery was
folded into ``repro.recovery.supervisor``; a refactor of the ladder
must leave every one of them untouched.

Re-pin (``PYTHONPATH=src python -m tests.integration.test_degradation_pin``)
only in a PR that changes a simulated quantity on purpose.
"""

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.chaos.harness import run_chaos
from repro.chaos.suites import CORE_PROFILES, OVERLOAD_PROFILES, PROFILES
from repro.core.config import EngineConfig
from repro.core.envelope import ANY_SOURCE, ANY_TAG, MessageEnvelope, ReceiveRequest
from repro.dpa.machine import DpaMachine
from repro.obs.ledger import FlightRecorder
from repro.obs.trace import SpanTracer
from repro.pressure.budget import PressureBudget
from repro.recovery.faults import CoreFaultPlan
from repro.recovery.quarantine import RecoveryPolicy

FIXTURES = Path(__file__).parent / "fixtures"

SEEDS = (1, 2, 3, 4)

#: lane name -> ChaosConfig template; every chaos lane that walks the ladder.
CHAOS_LANES = {
    **{f"soak-{name}": PROFILES[name] for name in ("spill", "overload")},
    **{f"cores-{name}": config for name, config in CORE_PROFILES.items()},
    **{f"overload-{name}": config for name, config in OVERLOAD_PROFILES.items()},
}


def _chaos_lane(name: str) -> str:
    """``ChaosReport.to_json()`` of seeds 1-4, concatenated."""
    return "".join(
        run_chaos(replace(CHAOS_LANES[name], seed=seed)).to_json() for seed in SEEDS
    )


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


#: DpaMachine modes. Small tables so the fixed stream overflows them.
MACHINE_MODES = {
    "spill": dict(),
    "storm": dict(
        cores=4,
        core_faults=CoreFaultPlan.storm(seed=11),
        recovery=RecoveryPolicy(quarantine_threshold=1, repair_epochs=3),
    ),
    "budget": dict(enforce_budget=True, budget=PressureBudget(budget_bytes=1000)),
}


def _machine(name: str) -> tuple[DpaMachine, str]:
    """Drive a ``DpaMachine`` with a fixed overflowing stream: waves
    that post more receives than the table holds, flood messages (many
    of them unexpected), then drain — so the working set repeatedly
    outgrows and re-fits the accelerator. The op stream comes from an
    inline LCG so it cannot drift with the stdlib or numpy."""
    state = 0x1F2E3D4C

    def draw(n: int) -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return (state >> 8) % n

    tracer = SpanTracer()
    recorder = FlightRecorder()
    machine = DpaMachine(
        EngineConfig(bins=4, block_threads=4, max_receives=8),
        tracer=tracer,
        recorder=recorder,
        **MACHINE_MODES[name],
    )
    events = []
    send_seq: dict[int, int] = {}
    handle = 0

    def post(source: int, tag: int) -> None:
        nonlocal handle
        event = machine.post_receive(ReceiveRequest(source=source, tag=tag, handle=handle))
        handle += 1
        if event is not None:
            events.append(event)

    def send(source: int, tag: int) -> None:
        seq = send_seq.get(source, 0)
        send_seq[source] = seq + 1
        machine.deliver(MessageEnvelope(source=source, tag=tag, send_seq=seq))

    for wave in range(24):
        burst = 3 + draw(12)
        keys = [(draw(3), draw(4)) for _ in range(burst)]
        if wave % 3 == 0:
            # Unexpected-first wave: messages land before their posts.
            for source, tag in keys:
                send(source, tag)
                if draw(5) == 0:
                    events.extend(machine.run())
            events.extend(machine.run())
        for source, tag in keys:
            wild = draw(10)
            post(
                ANY_SOURCE if wild == 8 else source,
                ANY_TAG if wild == 9 else tag,
            )
        if wave % 3 != 0:
            for source, tag in keys:
                send(source, tag)
                if draw(6) == 0:
                    events.extend(machine.run())
        events.extend(machine.run())
    outstanding = sum(send_seq.values()) - sum(
        1 for event in events if event.receive is not None
    )
    for _ in range(outstanding):
        post(ANY_SOURCE, ANY_TAG)
    events.extend(machine.run())
    tracer.close_open_spans()
    payload = {
        "report": asdict(machine.report),
        "engine": machine.engine.stats.to_dict(),
        "recovery": asdict(machine.recovery_stats),
        "pressure": (
            asdict(machine.pressure.stats) if machine.pressure is not None else None
        ),
        # kind source:tag:send_seq -> receive handle, post label, stamp
        "events": [
            f"{e.kind.value} {e.message.source}:{e.message.tag}:{e.message.send_seq}"
            f" -> {None if e.receive is None else e.receive.handle}"
            f" {e.receive_post_label} #{e.decision_order}"
            for e in events
        ],
        # Bulky, so pinned by digest; diff against a checkout of the
        # pinning commit to see *what* moved.
        "trace": _digest(tracer.to_chrome()),
        "ledger": _digest(recorder.export(name).to_dict()),
    }
    return machine, json.dumps(payload, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", CHAOS_LANES)
def test_chaos_reports_byte_identical(name):
    expected = (FIXTURES / f"degradation_pin_{name}.json").read_text()
    assert _chaos_lane(name) == expected


@pytest.mark.parametrize("name", MACHINE_MODES)
def test_dpa_machine_byte_identical(name):
    expected = (FIXTURES / f"degradation_pin_machine_{name}.json").read_text()
    assert _machine(name)[1] == expected


def test_machine_stream_is_not_vacuous():
    """Each pinned mode must walk its own rungs of the ladder."""
    spill, _ = _machine("spill")
    assert spill.engine.stats.fallback_spills >= 2
    assert spill.engine.stats.fallback_recoveries >= 2
    assert spill.report.host_messages and spill.report.blocks
    storm, _ = _machine("storm")
    rs = storm.recovery_stats
    assert rs.core_fail_stops and rs.core_hangs and rs.core_bit_flips
    assert rs.blocks_replayed and rs.blocks_recovered and rs.core_repairs
    assert rs.host_takeovers and rs.reoffloads
    assert storm.report.replay_cycles > 0
    budget, _ = _machine("budget")
    ps = budget.pressure.stats
    assert ps.evictions and ps.recalls and ps.takeovers and ps.reoffloads
    assert ps.budget_overruns == 0


if __name__ == "__main__":  # pragma: no cover - re-pin entry point
    FIXTURES.mkdir(exist_ok=True)
    for lane in CHAOS_LANES:
        (FIXTURES / f"degradation_pin_{lane}.json").write_text(_chaos_lane(lane))
    for mode in MACHINE_MODES:
        (FIXTURES / f"degradation_pin_machine_{mode}.json").write_text(
            _machine(mode)[1]
        )
