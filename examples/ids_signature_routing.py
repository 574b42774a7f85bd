#!/usr/bin/env python
"""IDS/IPS signature routing (the paper's third motivating application).

Section 1.1: "high-speed flow nature identification allows an IDS/IPS to
apply binary related attack signatures on binary flows and text related
attack signatures on text flows, which is more efficient than applying
all signatures on all flows."

This example implements a toy signature engine with text-targeted rules
(SQL injection, shell command injection) and binary-targeted rules
(shellcode NOP sleds, PE/ELF droppers), then compares:

* the naive IDS: every signature against every flow;
* the Iustitia-routed IDS: text rules on text-classified flows, binary
  rules on binary-classified flows, nothing on encrypted flows (opaque).

The routed configuration performs a fraction of the byte-scans at nearly
the same detection rate.
"""

import numpy as np

from repro import (
    BINARY,
    ENCRYPTED,
    TEXT,
    EngineConfig,
    GatewayTraceConfig,
    build_corpus,
    generate_gateway_trace,
    open_engine,
    train,
)
from repro.net.flow import assemble_flows

TEXT_SIGNATURES = (
    b"' OR 1=1",
    b"UNION SELECT",
    b"/bin/sh -c",
    b"<script>alert(",
    b"../../etc/passwd",
)
BINARY_SIGNATURES = (
    b"\x90" * 16,            # NOP sled
    b"MZ\x90\x00",           # PE dropper header
    b"\x7fELF\x02\x01\x01",  # ELF payload
    b"\xcc\xcc\xcc\xcc",     # int3 padding
)


def scan(payload: bytes, signatures) -> tuple[int, int]:
    """(matches, bytes scanned) for one flow against a signature set."""
    matches = sum(signature in payload for signature in signatures)
    return matches, len(payload) * len(signatures)


def inject_attacks(flows, rng) -> dict:
    """Plant one signature into a sample of flows; returns ground truth."""
    planted = {}
    keys = sorted(flows, key=lambda k: k.to_bytes())
    for key in keys:
        if rng.random() > 0.1:
            continue
        flow = flows[key]
        if not flow.packets:
            continue
        signature_pool = TEXT_SIGNATURES + BINARY_SIGNATURES
        signature = signature_pool[int(rng.integers(0, len(signature_pool)))]
        victim = flow.packets[len(flow.packets) // 2]
        victim.payload = victim.payload + signature
        planted[key] = signature
    return planted


def main() -> None:
    print("training classifier and generating traffic...")
    corpus = build_corpus(per_class=80, seed=23)
    classifier = train(corpus, model="svm", buffer_size=32)
    trace = generate_gateway_trace(
        GatewayTraceConfig(n_flows=250, duration=60.0, seed=29,
                           app_header_probability=0.0)
    )
    flows = assemble_flows(trace.packets)
    planted = inject_attacks(flows, np.random.default_rng(31))
    print(f"  {len(flows)} flows, {len(planted)} with planted signatures")

    engine = open_engine(
        classifier, EngineConfig(buffer_size=32, max_batch=1)
    )
    engine.process_trace(trace)
    labels = {c.key: c.label for c in engine.stats.classified}

    all_signatures = TEXT_SIGNATURES + BINARY_SIGNATURES
    naive_hits = naive_work = 0
    routed_hits = routed_work = 0
    for key, flow in flows.items():
        payload = flow.payload
        hits, work = scan(payload, all_signatures)
        naive_hits += min(hits, 1)
        naive_work += work

        label = labels.get(key)
        if label == TEXT:
            hits, work = scan(payload, TEXT_SIGNATURES)
        elif label == BINARY:
            hits, work = scan(payload, BINARY_SIGNATURES)
        else:
            hits, work = 0, 0  # encrypted: signatures cannot match anyway
        routed_hits += min(hits, 1)
        routed_work += work

    print("\nnaive IDS (all signatures x all flows):")
    print(f"  detections: {naive_hits}, scan work: {naive_work / 1e6:.1f} MB-sig")
    print("Iustitia-routed IDS:")
    print(f"  detections: {routed_hits}, scan work: {routed_work / 1e6:.1f} MB-sig")
    saved = 1 - routed_work / naive_work
    recall = routed_hits / naive_hits if naive_hits else 1.0
    print(f"\nscan work saved: {saved:.0%}; detection retained: {recall:.0%}")


if __name__ == "__main__":
    main()
