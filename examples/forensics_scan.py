#!/usr/bin/env python
"""Forensics: keyword search on text flows, binary logging (application 2).

Section 1.1: "identifying text flows may allow law enforcement to perform
complex keyword searching for finding possible human communications on
the fly", while "identifying binary flows may help copyright enforcement".

This example writes a synthetic gateway trace to a pcap file, re-reads it
(the offline-forensics workflow), classifies every flow, then:

* runs a keyword watchlist only over flows classified *text*;
* logs flows classified *binary* to a copyright-audit manifest;
* counts *encrypted* flows as "opaque" (flagged for metadata-only review).
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BINARY,
    ENCRYPTED,
    TEXT,
    EngineConfig,
    GatewayTraceConfig,
    Trace,
    build_corpus,
    generate_gateway_trace,
    open_engine,
    read_pcap,
    train,
    write_pcap,
)
from repro.net.flow import assemble_flows

WATCHLIST = (b"password", b"account", b"network", b"request", b"access")


def main() -> None:
    print("capturing traffic to pcap...")
    trace = generate_gateway_trace(
        GatewayTraceConfig(n_flows=200, duration=45.0, seed=51,
                           app_header_probability=0.0)
    )
    with tempfile.TemporaryDirectory() as tmp:
        pcap_path = Path(tmp) / "capture.pcap"
        write_pcap(pcap_path, trace.packets)
        size_kb = pcap_path.stat().st_size / 1024
        print(f"  wrote {pcap_path.name}: {len(trace)} packets, {size_kb:.0f} KB")

        print("re-reading capture and classifying flows...")
        replay = Trace(packets=read_pcap(pcap_path), labels=dict(trace.labels))

    corpus = build_corpus(per_class=80, seed=53)
    classifier = train(corpus, model="svm", buffer_size=32)
    engine = open_engine(
        classifier, EngineConfig(buffer_size=32, max_batch=1)
    )
    engine.process_trace(replay)
    labels = {c.key: c.label for c in engine.stats.classified}
    flows = assemble_flows(replay.packets)

    keyword_hits = []
    audit_manifest = []
    opaque = 0
    scanned_bytes = 0
    total_bytes = 0
    for key, flow in flows.items():
        payload = flow.payload
        total_bytes += len(payload)
        label = labels.get(key)
        if label == TEXT:
            scanned_bytes += len(payload)
            matched = [kw.decode() for kw in WATCHLIST if kw in payload.lower()]
            if matched:
                keyword_hits.append((key, matched))
        elif label == BINARY:
            audit_manifest.append((key, len(payload)))
        elif label == ENCRYPTED:
            opaque += 1

    print(f"\nflows: {len(flows)} "
          f"(text {sum(1 for l in labels.values() if l == TEXT)}, "
          f"binary {sum(1 for l in labels.values() if l == BINARY)}, "
          f"encrypted {sum(1 for l in labels.values() if l == ENCRYPTED)})")
    print(f"keyword search ran over {scanned_bytes / 1e6:.2f} of "
          f"{total_bytes / 1e6:.2f} MB ({scanned_bytes / total_bytes:.0%})")
    print(f"watchlist hits: {len(keyword_hits)}")
    for key, matched in keyword_hits[:5]:
        print(f"  {key.src}:{key.src_port} -> {key.dst}:{key.dst_port}  "
              f"keywords: {', '.join(matched)}")
    print(f"binary flows logged for copyright audit: {len(audit_manifest)}")
    print(f"opaque (encrypted) flows flagged for metadata review: {opaque}")


if __name__ == "__main__":
    main()
