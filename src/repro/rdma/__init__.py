"""Simulated RDMA substrate: wire, queue pairs, completion queues,
bounce buffers, the eager/rendezvous protocols of §IV, and the
lossy-transport layers — seeded fault injection
(:mod:`repro.rdma.faultwire`) and RC-style recovery
(:mod:`repro.rdma.reliability`).
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "bounce": "BounceBuffer BounceBufferPool BouncePoolExhausted",
    "cq": "Completion CompletionQueue CompletionQueueOverflow",
    "faultwire": "FaultPlan FaultStats FaultyWire",
    "flow": "CreditStall CreditedReceiver CreditedSender",
    "protocol": "DEFAULT_EAGER_THRESHOLD Delivery MessageHeader RdmaReceiver RdmaSender pump",
    "qp": "MemoryRegion MemoryRegistry QueuePair StagedMessage",
    "reliability": "ReliabilityConfig ReliabilityStats ReliableWire TransportError",
    "wire": "Endpoint Packet Wire packet_checksum",
})
