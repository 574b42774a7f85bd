"""Network substrate: packets, flows, pcap I/O, and trace generation.

A minimal from-scratch replacement for the packet-handling layer the paper
relies on (their C++ tool plus real gateway traces): IPv4/TCP/UDP header
construction and parsing at the wire level, 5-tuple flow keys with SHA-1
flow IDs, classic-pcap reading/writing, and a synthetic gateway-trace
generator calibrated to the UMASS trace marginals the paper reports.
"""
