"""Tests for deterministic RNG helpers."""

from repro.util.rng import derive_seed, make_rng


class TestMakeRng:
    def test_default_seed_is_deterministic(self):
        a = make_rng().integers(0, 1 << 30, size=8)
        b = make_rng().integers(0, 1 << 30, size=8)
        assert (a == b).all()

    def test_explicit_seed_is_deterministic(self):
        a = make_rng(42).integers(0, 1 << 30, size=8)
        b = make_rng(42).integers(0, 1 << 30, size=8)
        assert (a == b).all()

    def test_streams_are_pinned(self):
        # Fixed expected draws: a change in how numpy is imported or the
        # generator is built must not shift any seeded stream.
        assert make_rng(42).integers(0, 1 << 30, size=4).tolist() == [
            95832482, 831028979, 702840816, 471242136,
        ]
        assert make_rng().integers(0, 1 << 30, size=4).tolist() == [
            623574373, 540827967, 1068998901, 465144311,
        ]

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1 << 30, size=8)
        b = make_rng(2).integers(0, 1 << 30, size=8)
        assert (a != b).any()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "amg", 3) == derive_seed(7, "amg", 3)

    def test_component_sensitivity(self):
        base = derive_seed(7, "amg", 3)
        assert derive_seed(7, "amg", 4) != base
        assert derive_seed(7, "lulesh", 3) != base
        assert derive_seed(8, "amg", 3) != base

    def test_string_hash_stable_not_pyhash(self):
        # Must not depend on PYTHONHASHSEED: fixed expected values
        # guard against accidentally using hash().
        assert derive_seed(0, "rank") == 3727134462
        assert derive_seed(7, "amg", 3) == 3533431398
        assert derive_seed(0, "rank") != derive_seed(0, "knar")

    def test_int_and_str_components_distinct(self):
        assert derive_seed(0, 1) != derive_seed(0, "1")
