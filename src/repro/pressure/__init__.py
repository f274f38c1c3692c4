"""Runtime enforcement of the DPA memory budget (§III-E).

:mod:`repro.dpa.memory` computes what a configuration *would* cost;
this package makes the cost binding at runtime. A
:class:`~repro.pressure.budget.PressureMeter` charges every posted
receive descriptor, bin-table slot, and staged bounce payload against
a configurable byte budget, and the layers above degrade gracefully
instead of overflowing: admission control defers posts, eager sends
demote to rendezvous, cold unexpected entries evict to the host, and
sustained pressure escalates to a full software takeover.
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "budget": (
        "BudgetOverrun PressureBudget PressureMeter PressureState PressureStats "
        "UNEXPECTED_HEADER_BYTES"
    ),
    "controller": "PressuredPipeline",
})
