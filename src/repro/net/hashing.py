"""SHA-1 flow identifiers.

Section 4.5: "We use SHA-1 to create 160 bit hash result for each flow."
The 20-byte digest of the canonical flow-key encoding is the paper's CDB
key; its size dominates the 194-bit-per-record accounting (160 hash + 32
inter-arrival + 2 label bits) that :data:`repro.core.cdb.RECORD_BITS`
still models. The engine itself keys its flow table by the 13-byte
encoding directly (``Packet.flow_tuple`` — exact, and already in hand
after the decode), so no packet pays for a digest; these functions serve
the paper benches and anything that wants the fixed-width ID.
"""

from __future__ import annotations

import hashlib

from repro.net.flow import FlowKey
from repro.net.packet import Packet

__all__ = ["FLOW_HASH_BITS", "flow_hash", "packet_flow_hash"]

#: Width of a flow ID in bits (SHA-1 digest).
FLOW_HASH_BITS = 160


def flow_hash(key: FlowKey) -> bytes:
    """20-byte SHA-1 flow ID of a flow key."""
    return hashlib.sha1(key.to_bytes()).digest()


def packet_flow_hash(packet: Packet) -> bytes:
    """Flow ID of the flow a packet belongs to."""
    return flow_hash(FlowKey.of_packet(packet))
