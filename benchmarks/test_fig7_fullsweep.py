"""Figure 7 companion — the artifact's full 1..256 powers-of-two bin
sweep (6 configurations per application).
"""

from repro.analyzer import BIN_SWEEP, sweep_applications

NAMES = ["BoxLib CNS", "LULESH", "AMG", "SNAP"]


def test_full_bin_sweep(benchmark):
    results = benchmark.pedantic(
        sweep_applications,
        kwargs=dict(bins_list=BIN_SWEEP, rounds=3, names=NAMES),
        rounds=1,
        iterations=1,
    )
    assert set(results) == set(NAMES)
    for name, per_bins in results.items():
        assert sorted(per_bins) == sorted(BIN_SWEEP)
        depths = [per_bins[b].depth.mean_depth for b in sorted(BIN_SWEEP)]
        # Largely monotone decreasing; allow small jitter between
        # adjacent large-bin configs where depth is already ~0.
        assert depths[0] >= depths[-1], name
        assert depths[0] >= max(depths[1:]) * 0.99, name
        # Empty-bin fraction grows with bin count at the fullest
        # moment (same keys, more buckets).
        empties = [per_bins[b].depth.mean_empty_fraction for b in sorted(BIN_SWEEP)]
        assert empties[-1] >= empties[0], name
