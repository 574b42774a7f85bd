"""Network substrate: packets, flows, pcap I/O, and trace generation.

A minimal from-scratch replacement for the packet-handling layer the paper
relies on (their C++ tool plus real gateway traces): IPv4/TCP/UDP header
construction and parsing at the wire level, 5-tuple flow keys with SHA-1
flow IDs, classic-pcap reading/writing, and a synthetic gateway-trace
generator calibrated to the UMASS trace marginals the paper reports.
"""

from repro._lazy import lazy_exports
from repro.net.ethernet import EthernetHeader
from repro.net.flow import FlowKey, assemble_flows
from repro.net.packet import (
    PROTO_TCP,
    PROTO_UDP,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
)
from repro.net.pcap import (
    PcapDecodeStats,
    PcapError,
    iter_pcap,
    read_pcap,
    write_pcap,
)
from repro.net.appproto import (
    APP_PROTOCOLS,
    make_app_header,
    random_app_header,
)

# Trace generation, in-memory traces and the SHA-1 flow hash: nothing
# the classify pass runs.
__getattr__, __dir__ = lazy_exports(globals(), {
    "GatewayTraceConfig": "repro.net.tracegen",
    "Trace": "repro.net.trace",
    "TraceRecord": "repro.net.trace",
    "flow_hash": "repro.net.hashing",
    "generate_gateway_trace": "repro.net.tracegen",
})

__all__ = [
    "APP_PROTOCOLS",
    "EthernetHeader",
    "FlowKey",
    "GatewayTraceConfig",
    "Ipv4Header",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PcapDecodeStats",
    "PcapError",
    "TcpHeader",
    "Trace",
    "TraceRecord",
    "UdpHeader",
    "assemble_flows",
    "flow_hash",
    "generate_gateway_trace",
    "iter_pcap",
    "make_app_header",
    "random_app_header",
    "read_pcap",
    "write_pcap",
]
