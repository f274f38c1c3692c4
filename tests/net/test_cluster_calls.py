"""Call-count guard for the RC-over-fabric path: per packet, not per poll.

Counts, not timings — ``sys.setprofile`` events of one 16-rank, 3-round
halo — so the guard reads the same on any machine. Three rules hold the
path's cost where it is (docs/ARCHITECTURE.md, "what is resolved when"):

* what is a function of the **connection** is resolved once per
  connection: one ``RouteTable.path`` call per directed flow;
* what is a function of the **packet** is derived once and carried:
  the fabric reads the ledger mid inline at transmit, entering no
  per-packet mid helper, and a control frame — two scalars — is
  checksummed once per distinct (opcode, PSN), by value, never again
  per ACK;
* each **object** is built once: one ``MessageEnvelope`` per message,
  one ``MatchEvent`` per matching decision;
* each **layer crossing** is one call: no helper hop per frame inside
  the reliable wire (dispatch, ACK, the common timer tick), the fabric
  wire (the arrival pop) or the recorder (one call per stamp site).

The ceiling on total calls per delivery is the backstop for everything
not named: CPython 3.11 counts 292.2 here (322.1 before the one-call
crossings, 322.8 before the flight recorder's typed columns and the
fabric's hop log, 338.0 before the engine's lookahead search, 366.9
before the columnar flight recorder, 479.4 before the per-packet diet),
and the ceiling is that plus 3 %; later interpreters inline more and
count fewer.
"""

import sys

from repro.net.cluster import ClusterSim, cluster_workload
from repro.rdma.wire import _scalar_checksum, control_frame

RANKS = 16
ROUNDS = 3
#: ``call`` + ``c_call`` events per delivered message, set-up included.
CALLS_PER_DELIVERY_CEILING = 301


def _profiled_run():
    """(sim, report, total events, per-site counts) of one halo."""
    sites: dict[tuple[str, str], int] = {}
    built: dict[str, int] = {}
    total = 0

    def hook(frame, event, arg):
        nonlocal total
        if event == "c_call":
            total += 1
        elif event == "call":
            total += 1
            code = frame.f_code
            name = code.co_name
            key = (code.co_filename.rsplit("/", 1)[-1], name)
            sites[key] = sites.get(key, 0) + 1
            if name == "__init__" and code.co_filename == "<string>":
                # A dataclass-generated constructor: whose?
                kind = type(frame.f_locals.get("self")).__name__
                built[kind] = built.get(kind, 0) + 1

    trace = cluster_workload("halo", RANKS, rounds=ROUNDS)
    # The by-value memos are process-wide; start them empty so their
    # miss counts are this run's.
    _scalar_checksum.cache_clear()
    control_frame.cache_clear()
    sys.setprofile(hook)
    try:
        sim = ClusterSim(trace, topology="torus")
        report = sim.run()
    finally:
        sys.setprofile(None)
    return sim, report, total, sites, built


def test_per_packet_not_per_poll():
    sim, report, total, sites, built = _profiled_run()
    results = report.results
    deliveries = results["deliveries"]
    packets = results["fabric"]["injected"]
    assert report.ok and deliveries == RANKS * 4 * ROUNDS
    assert results["transport"]["retransmits"] == 0  # one ACK per message

    # Connection: each wire is two directed flows, each routed once.
    assert sites[("routing.py", "path")] == 2 * len(sim.wires)

    # Packet: the ledger mid is read inline at transmit and carried; of
    # the fabric wire's functions only its two crossings run per packet.
    per_packet = {
        name for (file, name), n in sites.items() if file == "fabricwire.py" and n >= packets
    }
    assert per_packet == {"transmit", "receive"}, per_packet

    # Control frames are values. Every ACK of the run carries one of
    # ROUNDS distinct PSNs (one message per direction per round): the
    # CRC is computed — and the frame built — once for each, and the
    # image builder never runs for a control frame at all.
    acks = sum(wire.stats.acks_sent for wire in sim.wires)
    assert acks == deliveries
    assert sites[("wire.py", "_scalar_checksum")] == ROUNDS
    assert sites[("wire.py", "control_frame")] == ROUNDS
    assert _scalar_checksum.cache_info().misses == ROUNDS
    # Senders share the interned frame; receivers recompute by value.
    assert control_frame.cache_info().hits == acks - ROUNDS
    assert _scalar_checksum.cache_info().hits == acks
    # Data frames: imaged once by the sender and once by the receiver,
    # four nested levels each (inner packet, its payload pair, the
    # header, its inline hash words; the (PSN, inner) body is built in
    # place) — and nothing else is.
    assert sites[("wire.py", "packet_checksum")] == 2 * deliveries + acks + ROUNDS
    assert sites[("wire.py", "_mirror")] == 2 * deliveries * 4

    # Crossings: the reliable wire's ``receive`` checks every frame and
    # dispatches it to one handler, sends the data frame's ACK and ticks
    # a timer that does not fire, all in place.
    assert sites[("reliability.py", "_process_data")] == deliveries
    assert sites[("reliability.py", "_process_ack")] == acks
    assert ("reliability.py", "_process_control") not in sites
    assert ("reliability.py", "_advance_timer") not in sites

    # Objects: built once each.
    assert built["MessageEnvelope"] == deliveries
    stats = [node.matcher.stats for node in sim.ranks]
    decisions = sum(s.messages + s.receives_matched_from_unexpected for s in stats)
    assert decisions >= deliveries
    assert built["MatchEvent"] == decisions
    assert "Hop" not in built  # nobody asked for a hop object

    assert total / deliveries <= CALLS_PER_DELIVERY_CEILING, total / deliveries
