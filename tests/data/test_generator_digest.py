"""The trace and corpus generators' output, pinned byte for byte.

The generators' weighted draws read a CDF built once instead of calling
``rng.choice(seq, p=...)`` per draw; both consume one ``rng.random()``
per draw and pick the same index, so every seeded trace and corpus is
what it was. These digests were taken from the ``rng.choice`` code.
"""

import hashlib

from repro.data.corpus import build_corpus
from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace


def trace_digest(n_flows: int, seed: int) -> str:
    trace = generate_gateway_trace(GatewayTraceConfig(n_flows=n_flows, seed=seed))
    digest = hashlib.sha256()
    for packet in trace.packets:
        digest.update(repr(packet.timestamp).encode())
        digest.update(packet.to_bytes())
    for key, nature in sorted(
        trace.labels.items(), key=lambda item: item[0].to_bytes()
    ):
        digest.update(key.to_bytes() + str(nature).encode())
    return digest.hexdigest()


def corpus_digest(per_class: int, seed: int) -> str:
    digest = hashlib.sha256()
    for labeled in build_corpus(per_class=per_class, seed=seed):
        digest.update(f"{labeled.nature}:{labeled.kind}:{len(labeled)}".encode())
        digest.update(labeled.data)
    return digest.hexdigest()


def test_gateway_trace_bytes_are_pinned():
    assert trace_digest(40, 77) == (
        "df591c08212e7e1f68d3c5e64549630e157e08c417c6e7e58ce1a6e2f60359e1"
    )


def test_corpus_bytes_are_pinned():
    assert corpus_digest(6, 99) == (
        "8e0a27ad039f81a08b81e9e25e6fe8fef8a50040ae9c3c6a46b9636a028a3463"
    )
