"""ClusterSim end-to-end: the unchanged rdma stack over the fabric."""

import pytest

from repro.net.cluster import (
    CLUSTER_APPS,
    ClusterReport,
    ClusterSim,
    cluster_workload,
    run_cluster,
)
from repro.net.faults import LinkFaultPlan


def assert_clean(report):
    assert report.ok, report.results["violations"]
    assert report.results["undelivered"] == 0
    assert report.results["deliveries"] == report.results["sends"]


class TestWorkloads:
    @pytest.mark.parametrize("app", sorted(CLUSTER_APPS))
    def test_generates_exact_receive_trace(self, app):
        trace = cluster_workload(app, 8, rounds=2)
        assert trace.nprocs == 8
        assert any(rank.ops for rank in trace.ranks)

    def test_unknown_app(self):
        with pytest.raises(KeyError, match="nope"):
            cluster_workload("nope", 4)


class TestEndToEnd:
    @pytest.mark.parametrize("topology", ["torus", "fattree"])
    def test_halo_runs_clean(self, topology):
        report = run_cluster("halo", 8, topology=topology, rounds=2)
        assert_clean(report)
        assert report.results["fabric"]["dropped"] == 0
        assert report.results["transport"]["retransmits"] == 0

    def test_rendezvous_path(self):
        """Payloads above the eager threshold go through RTS/rdma_read
        across the fabric; the read phase must appear in the ledger."""
        report = run_cluster(
            "halo", 8, topology="fattree", rounds=2, size=8192, eager_threshold=1024
        )
        assert_clean(report)
        assert report.results["phase_totals"].get("rdma_read", 0) > 0

    def test_hotspot_congests_the_root(self):
        report = run_cluster("hotspot", 9, topology="fattree", rounds=2)
        assert_clean(report)
        links = report.results["links"]
        assert max(l["peak_wait"] for l in links.values()) > 0

    def test_conservation_exact_on_clean_run(self):
        report = run_cluster("alltoall", 6, topology="torus", rounds=2)
        assert_clean(report)
        cons = report.results["conservation"]
        assert cons["checked"] > 0
        assert cons["exact"] == cons["checked"]
        assert cons["recovered"] == 0

    def test_unexplained_wire_phase_fails_the_report(self):
        """A message whose wire phase no fabric injection explains is
        a conservation failure, and ``ok`` must say so even though
        every message was delivered in order."""
        sim = ClusterSim(cluster_workload("halo", 8, rounds=2), topology="torus")
        assert_clean(sim.run())
        # Doctor one record through the recorder's own verbs: rewind it
        # to its ``send`` stamp, then re-stamp the rest with the wire
        # stamp moved off the inject tick and the arrival off every
        # injection's.
        recorder = sim.recorder
        transitions = recorder.records[3].transitions
        assert transitions[0][1] == "send"
        recorder.rewind(3, 1)
        for ts, phase, detail in transitions[1:]:
            if phase in ("wire", "staged"):
                ts += 0.5
            recorder.stamp_at(3, phase, ts, **(detail or {}))
        doctored = recorder.records[3].transitions
        assert [phase for _, phase, _ in doctored] == [phase for _, phase, _ in transitions]
        report = sim.report()
        cons = report.results["conservation"]
        assert cons["checked"] == cons["exact"] + cons["recovered"] + 1
        assert not report.results["violations"]
        assert report.results["undelivered"] == 0
        assert not report.ok
        # The verdict survives the fleet codec's round trip.
        assert not ClusterReport.from_dict(report.to_dict()).ok

    def test_report_without_a_ledger_is_not_a_conservation_failure(self):
        trace = cluster_workload("halo", 8, rounds=2)
        report = ClusterSim(trace, topology="torus", record=False).run()
        assert report.results["conservation"] == {"checked": 0, "exact": 0, "recovered": 0}
        assert report.ok

    def test_deterministic(self):
        a = run_cluster("halo", 8, topology="torus", rounds=2)
        b = run_cluster("halo", 8, topology="torus", rounds=2)
        assert a.results == b.results

    def test_custom_topology_and_placement(self):
        from repro.net.placement import Placement
        from repro.net.topology import torus2d

        topo = torus2d(2, 2)
        trace = cluster_workload("halo", 8, rounds=2)
        placement = Placement.round_robin(8, topo.hosts)
        report = ClusterSim(trace, topology=topo, placement=placement).run()
        assert_clean(report)
        assert report.params["placement"] == "round_robin"


class TestFaults:
    def test_partition_recovered_without_violations(self):
        plan = LinkFaultPlan(partition_at=48, partition_ticks=48)
        report = run_cluster("halo", 8, topology="torus", rounds=2, plan=plan)
        assert_clean(report)
        assert report.results["fabric"]["dropped"] > 0
        assert report.results["transport"]["retransmits"] > 0

    def test_flaps_recovered(self):
        plan = LinkFaultPlan(
            seed=3, flap_links=2, flaps_per_link=2, flap_ticks=24, flap_horizon=256
        )
        report = run_cluster("halo", 8, topology="torus", rounds=3, plan=plan)
        assert_clean(report)


class TestReport:
    def test_round_trips_through_dict(self):
        report = run_cluster("halo", 4, topology="ring", rounds=1)
        clone = ClusterReport.from_dict(report.to_dict())
        assert clone.params == report.params
        assert clone.results == report.results

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="expected repro.net.cluster"):
            ClusterReport.from_dict({"schema": "bogus", "params": {}, "results": {}})


class TestSelfcheck:
    def test_all_invariants_pass(self):
        from repro.net.selfcheck import run_selfcheck

        checks = run_selfcheck(ranks=8, rounds=2)
        assert [name for name, ok, _ in checks if not ok] == []
