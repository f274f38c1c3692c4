"""Miniature MPI point-to-point runtime over pluggable matchers.

* :class:`MpiSim` — the multi-rank world (isend/irecv/wait/progress)
* :class:`Communicator` / :class:`CommunicatorInfo` — per-communicator
  matching resources and assertion hints (§III-E, §VII)
* :class:`Request` / :class:`Status` — nonblocking handles
* :mod:`repro.mpisim.collectives` — flat collectives built on p2p
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "collectives": "alltoall barrier bcast gather",
    "communicator": "Communicator CommunicatorInfo",
    "recorder": "RecordingSim",
    "request": "Request RequestKind Status",
    "runtime": "MpiSim ProgressStall",
})
