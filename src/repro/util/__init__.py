"""Substrate-neutral primitives shared by every subsystem.

The optimistic matching engine (:mod:`repro.core`) models hardware
data structures — booking bitmaps, partial-barrier bitmaps, intrusive
lists with lazy removal — and those models live here so that the DPA
simulator, the baseline matchers, and the trace analyzer can reuse
them without depending on each other.
"""

from repro.util.bitmap import Bitmap
from repro.util.counters import MonotonicCounter, SequenceLabeler
from repro.util.intrusive import IntrusiveList, IntrusiveNode
from repro.util.rng import make_rng
from repro.util.slotpool import SlotPool

__all__ = [
    "Bitmap",
    "MonotonicCounter",
    "SequenceLabeler",
    "IntrusiveList",
    "IntrusiveNode",
    "SlotPool",
    "make_rng",
]
