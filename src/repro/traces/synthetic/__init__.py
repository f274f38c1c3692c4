"""Synthetic trace generators for the Table II mini-apps."""

from repro.util.exports import lazy_exports

# ``generate`` alone is bound on import, not on first use: the wall-clock
# benchmark's tracer wraps it in place, reading it from this package's
# ``__dict__``, and ``fleet.kinds`` looks it up here at call time.
from repro.traces.synthetic.apps import generate

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "apps": "APPLICATIONS AppSpec app_names generate",
    "base": "RankBuilder TraceBuilder",
    "patterns": (
        "alltoall_p2p_round grid_dims grid_neighbors halo_exchange_round irregular_round "
        "manytoone_round ring_round sweep_round"
    ),
})
