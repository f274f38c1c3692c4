"""Substrate-neutral primitives shared by every subsystem.

The optimistic matching engine (:mod:`repro.core`) models hardware
data structures — booking bitmaps, partial-barrier bitmaps, intrusive
lists with lazy removal — and those models live here so that the DPA
simulator, the baseline matchers, and the trace analyzer can reuse
them without depending on each other.
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "bitmap": "Bitmap",
    "counters": "MonotonicCounter SequenceLabeler",
    "intrusive": "IntrusiveList IntrusiveNode",
    "rng": "make_rng",
    "slotpool": "SlotPool",
})
