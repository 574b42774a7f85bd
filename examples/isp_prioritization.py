#!/usr/bin/env python
"""ISP traffic prioritization (the paper's first motivating application).

Section 1.1: "Considering an ISP serving a bank and a call center, ...
the ISP may give higher priority to the encrypted flows [of the bank]
because they most likely carry banking transactions. [For] the call
center, the ISP may give higher priority to the binary flows because they
most likely carry voice data."

This example runs two Iustitia engines — one per customer link — over
synthetic gateway traffic, attaches a per-customer QoS policy to the
engine's per-nature output queues, and reports how much of the priority
traffic was identified and how quickly (delay relative to packet cadence).
"""

import zlib

import numpy as np

from repro import (
    ENCRYPTED,
    BINARY,
    TEXT,
    EngineConfig,
    GatewayTraceConfig,
    QueueSink,
    build_corpus,
    generate_gateway_trace,
    open_engine,
    train,
)
from repro.core.delay import BufferingDelayModel

#: Customer -> (QoS priority by nature, traffic mix weights T/B/E).
CUSTOMERS = {
    "bank": ({ENCRYPTED: "gold", BINARY: "silver", TEXT: "bronze"},
             (0.2, 0.2, 0.6)),
    "call-center": ({BINARY: "gold", ENCRYPTED: "silver", TEXT: "bronze"},
                    (0.15, 0.7, 0.15)),
}


def main() -> None:
    print("training the shared classifier (SVM, b = 32)...")
    corpus = build_corpus(per_class=80, seed=11)
    classifier = train(corpus, model="svm", buffer_size=32)

    for customer, (policy, mix) in CUSTOMERS.items():
        print(f"\n=== {customer} link ===")
        trace = generate_gateway_trace(
            GatewayTraceConfig(
                n_flows=250, duration=60.0,
                seed=zlib.crc32(customer.encode()) % 1000,
                nature_weights=mix, app_header_probability=0.0,
            )
        )
        queues = QueueSink()
        engine = open_engine(
            classifier,
            EngineConfig(buffer_size=32, max_batch=1),
            sink=queues,
        )
        stats = engine.process_trace(trace)
        report = engine.evaluate_against(trace)

        print(f"  flows classified: {stats.classifications} "
              f"(accuracy {report['accuracy']:.1%})")
        total_packets = sum(len(q) for q in queues.queues.values())
        for nature, queue in sorted(
            queues.queues.items(), key=lambda kv: len(kv[1]), reverse=True
        ):
            share = len(queue) / total_packets if total_packets else 0.0
            print(f"  {policy[nature]:6s} queue [{str(nature):9s}]: "
                  f"{len(queue):5d} packets ({share:.0%})")

        # How early does prioritization kick in? The delay before a flow's
        # packets reach their QoS queue is the buffering delay.
        delays = stats.buffering_delays()
        model = BufferingDelayModel(buffer_size=32)
        gold_nature = next(n for n, tier in policy.items() if tier == "gold")
        gold_flows = [c for c in stats.classified if c.label == gold_nature]
        print(f"  gold-tier flows identified: {len(gold_flows)}")
        print(f"  median classification delay: {np.median(delays) * 1e3:.1f} ms "
              f"(buffer fill dominates, cf. paper Figure 10)")


if __name__ == "__main__":
    main()
