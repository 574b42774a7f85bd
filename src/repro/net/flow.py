"""Flow keys and flow assembly.

A flow is identified by its 5-tuple. Iustitia hashes the packet header to a
flow ID (Section 4.5); :class:`FlowKey` is the canonical pre-hash identity,
and :func:`assemble_flows` groups a packet sequence into per-flow payload
streams (useful for offline evaluation against ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.packet import Packet, pack_five_tuple

__all__ = ["Flow", "FlowKey", "assemble_flows"]

_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True)
class FlowKey:
    """Directed 5-tuple flow identity."""

    src: str
    src_port: int
    dst: str
    dst_port: int
    protocol: int

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"invalid port {port}")
        if not 0 <= self.protocol <= 255:
            raise ValueError(f"invalid protocol {self.protocol}")

    @classmethod
    def of_packet(cls, packet: Packet) -> "FlowKey":
        """The directed flow key of a packet."""
        src, src_port, dst, dst_port, protocol = packet.five_tuple
        return cls(src=src, src_port=src_port, dst=dst, dst_port=dst_port,
                   protocol=protocol)

    @classmethod
    def unchecked(
        cls, src: str, src_port: int, dst: str, dst_port: int, protocol: int
    ) -> "FlowKey":
        """A key from fields the caller has already range-checked.

        Skips ``__init__`` and ``__post_init__``: for the engine, which
        mints one key per flow from a 5-tuple that just passed
        ``struct.pack``'s range check on its way to becoming the flow ID
        (:attr:`Packet.flow_tuple <repro.net.packet.Packet.flow_tuple>`).
        Anything else goes through ``FlowKey(...)`` or :meth:`of_packet`.
        The fields are set with ``object.__setattr__``, not through the
        instance ``__dict__``, which would un-share its key table.
        """
        key = _new(cls)
        _set(key, "src", src)
        _set(key, "src_port", src_port)
        _set(key, "dst", dst)
        _set(key, "dst_port", dst_port)
        _set(key, "protocol", protocol)
        return key

    def to_bytes(self) -> bytes:
        """Canonical 13-byte encoding: the engine's flow-table key."""
        return pack_five_tuple(
            self.src, self.src_port, self.dst, self.dst_port, self.protocol
        )

    def reversed(self) -> "FlowKey":
        """The opposite direction of this flow."""
        return FlowKey(
            src=self.dst,
            src_port=self.dst_port,
            dst=self.src,
            dst_port=self.src_port,
            protocol=self.protocol,
        )


@dataclass
class Flow:
    """An assembled unidirectional flow: ordered packets and concatenated payload."""

    key: FlowKey
    packets: list[Packet] = field(default_factory=list)

    @property
    def payload(self) -> bytes:
        """Concatenated packet payloads in arrival order."""
        return b"".join(p.payload for p in self.packets)

    @property
    def start_time(self) -> float:
        if not self.packets:
            raise ValueError("flow has no packets")
        return self.packets[0].timestamp

    @property
    def saw_fin_or_rst(self) -> bool:
        """Whether any TCP packet carried FIN or RST (CDB purge trigger)."""
        return any(
            p.is_tcp and (p.transport.fin or p.transport.rst) for p in self.packets
        )

    def inter_arrival_times(self) -> list[float]:
        """Gaps between consecutive packets of this flow."""
        stamps = [p.timestamp for p in self.packets]
        return [b - a for a, b in zip(stamps, stamps[1:])]


def assemble_flows(packets: "list[Packet]") -> dict[FlowKey, Flow]:
    """Group packets by directed 5-tuple, preserving arrival order."""
    flows: dict[FlowKey, Flow] = {}
    for packet in packets:
        key = FlowKey.of_packet(packet)
        if key not in flows:
            flows[key] = Flow(key=key)
        flows[key].packets.append(packet)
    return flows
