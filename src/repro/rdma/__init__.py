"""Simulated RDMA substrate: wire, queue pairs, completion queues,
bounce buffers, the eager/rendezvous protocols of §IV, and the
lossy-transport layers — seeded fault injection
(:mod:`repro.rdma.faultwire`) and RC-style recovery
(:mod:`repro.rdma.reliability`).
"""

from repro.rdma.bounce import BounceBuffer, BounceBufferPool, BouncePoolExhausted
from repro.rdma.cq import Completion, CompletionQueue, CompletionQueueOverflow
from repro.rdma.faultwire import FaultPlan, FaultStats, FaultyWire
from repro.rdma.flow import CreditedReceiver, CreditedSender, CreditStall
from repro.rdma.protocol import (
    DEFAULT_EAGER_THRESHOLD,
    Delivery,
    MessageHeader,
    RdmaReceiver,
    RdmaSender,
    pump,
)
from repro.rdma.qp import MemoryRegion, MemoryRegistry, QueuePair, StagedMessage
from repro.rdma.reliability import (
    ReliabilityConfig,
    ReliabilityStats,
    ReliableWire,
    TransportError,
)
from repro.rdma.wire import Endpoint, Packet, Wire, packet_checksum

__all__ = [
    "BounceBuffer",
    "BounceBufferPool",
    "BouncePoolExhausted",
    "Completion",
    "CompletionQueue",
    "CompletionQueueOverflow",
    "CreditStall",
    "CreditedReceiver",
    "CreditedSender",
    "FaultPlan",
    "FaultStats",
    "FaultyWire",
    "DEFAULT_EAGER_THRESHOLD",
    "Delivery",
    "Endpoint",
    "MemoryRegion",
    "MemoryRegistry",
    "MessageHeader",
    "Packet",
    "QueuePair",
    "RdmaReceiver",
    "RdmaSender",
    "ReliabilityConfig",
    "ReliabilityStats",
    "ReliableWire",
    "StagedMessage",
    "TransportError",
    "Wire",
    "packet_checksum",
    "pump",
]
