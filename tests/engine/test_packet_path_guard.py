"""Structural guard on the packet path: counts, not timings.

After a flow is labelled, each later packet is supposed to cost one CDB
lookup (paper §1.2, §4.5). Streaming a capture through the engine must
therefore build no header object and take no SHA-1, and mint one
``FlowKey`` per *flow* — exact counts, so the test cannot flake, and it
fails the day someone re-adds per-packet work.
"""

import hashlib
from collections import Counter

from repro.api import open_engine
from repro.core.config import EngineConfig
from repro.ingest import PcapFileSource
from repro.net.flow import FlowKey
from repro.net.packet import Ipv4Header, TcpHeader, UdpHeader
from repro.net.pcap import write_pcap


def test_streamed_capture_parses_no_header_and_hashes_nothing(
    tmp_path, monkeypatch, trained_svm, small_trace
):
    path = tmp_path / "trace.pcap"
    write_pcap(path, small_trace.packets)
    calls = Counter()

    def count(owner, name, wrap=lambda function: function):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[f"{owner.__name__}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counted))

    for header in (Ipv4Header, TcpHeader, UdpHeader):
        # ``original`` is already bound to the class: drop the wrapper's ``cls``.
        count(header, "from_bytes", lambda f: classmethod(lambda cls, data: f(data)))
    count(FlowKey, "__init__")
    count(hashlib, "sha1")

    engine = open_engine(trained_svm, EngineConfig(max_batch=8))
    with PcapFileSource(path) as source:
        stats = engine.process_source(source)
    engine.close()

    assert stats.packets == len(small_trace.packets)
    assert stats.cdb_hits > stats.classifications > 0
    assert calls["Ipv4Header.from_bytes"] == 0
    assert calls["TcpHeader.from_bytes"] == 0
    assert calls["UdpHeader.from_bytes"] == 0
    assert calls["hashlib.sha1"] == 0
    # Every pending flow ends labelled or unclassifiable, and each was
    # minted with exactly one key.
    assert calls["FlowKey.__init__"] == stats.classifications + stats.unclassifiable
    assert calls["FlowKey.__init__"] < stats.packets / 4
