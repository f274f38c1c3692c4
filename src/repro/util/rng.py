"""Seeded random-number helpers.

Every stochastic component (synthetic trace generators, random thread
schedules, workload sweeps) takes an explicit seed and builds its
generator through :func:`make_rng`, so that every figure and table in
the reproduction is bit-reproducible run-to-run. numpy is imported on
first call, so a module that only imports this one (the engine, the RDMA
stack, the cluster simulator) does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["make_rng", "derive_seed"]

_DEFAULT_SEED = 0x5C24  # "SC24"


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a NumPy generator seeded deterministically.

    ``None`` maps to the project-wide default seed rather than OS
    entropy: reproduction runs must never depend on ambient state.
    """
    import numpy as np

    return np.random.default_rng(_DEFAULT_SEED if seed is None else seed)


def derive_seed(seed: int, *components: int | str) -> int:
    """Derive a stable child seed from a parent seed and labels.

    Used to give each rank / application / repetition its own stream
    without correlated overlap (e.g. per-rank trace generation).
    """
    import numpy as np

    ss = np.random.SeedSequence([seed & 0xFFFFFFFF] + [_component_key(c) for c in components])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def _component_key(component: int | str) -> int:
    if isinstance(component, int):
        return component & 0xFFFFFFFF
    # Stable across processes (unlike hash()): FNV-1a over the bytes.
    acc = 0x811C9DC5
    for byte in component.encode("utf-8"):
        acc = ((acc ^ byte) * 0x01000193) & 0xFFFFFFFF
    return acc
