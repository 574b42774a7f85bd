"""Deterministic hot-path perf runner: scalar vs batched extraction/inference.

Measures the four batched hot paths against their scalar counterparts on
the synthetic corpus generators and writes ``BENCH_hot_path.json``:

* full-vector entropy extraction  — ``entropy_vector`` per buffer vs
  ``entropy_vectors_batch`` over the whole batch;
* CART prediction                 — per-row node walk vs the compiled
  flat-array ``predict``;
* DAGSVM prediction               — per-sample DDAG walk vs the batched
  per-level descent;
* end-to-end classification      — ``classify_buffer`` per flow buffer vs
  one ``classify_buffers`` call.

It also measures the staged engine's *fill-path* throughput — packets/sec
through ``StagedEngine.process_trace`` on a one-packet-per-flow trace —
across a ``max_batch`` sweep, and writes that to ``BENCH_engine.json``:
``max_batch=1`` is the monolithic engine's classify-on-fill behaviour,
larger batches ride the vectorized kernels. Two telemetry-era numbers
ride along in the same file: the instrumentation overhead (fill-path
throughput with the metrics registry on vs off, acceptance budget <5%)
and the paper's Section-5 ``delay_ratio`` — mean per-flow classification
wall-clock over the mean packet inter-arrival of a synthetic gateway
trace (the paper reports ~0.1).

A third payload, ``BENCH_state.json``, measures the per-flow state cost
of the two feature extractors on a fragmented trace: exact per-flow
state bytes of the incremental (fold-at-arrival, no payload) extractor
vs the buffered baseline — both reported next to the paper's ~200 B
Table-3 figure — plus fold-path engine throughput for each, with label
equivalence validated before anything is timed.

A fourth payload, ``BENCH_ingest.json``, compares streaming ingest
(``process_source`` over a ``PcapFileSource``) against the materialized
path (``read_pcap`` + ``process_trace``) on the same capture file:
throughput ratio (reported honestly — the streaming decode does the
same per-record work, so expect ~1x, not a speedup) and peak traced
memory, including a decode-only peak at 1x and 2x trace sizes showing
ingest memory is O(record), not O(capture). A fault-recovery sweep
rides along in the same file: the engine consumes a scripted flaky
source under a ``SupervisedSource`` across a fault-count sweep (zero
backoff, no wall-clock sleeps), label equality and zero packet loss
asserted at every count, reporting supervision overhead vs the clean
run.

Every speedup is validated for output equivalence before it is timed.
Seeds are fixed; only the wall-clock numbers vary between machines.

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_perf.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.classifier import IustitiaClassifier
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.delay import delay_inter_arrival_ratio, mean_inter_arrival
from repro.core.entropy_vector import entropy_vector, entropy_vectors_batch
from repro.core.features import FULL_FEATURES
from repro.core.labels import BINARY, ENCRYPTED, TEXT
from repro.data.binarygen import generate_binary_file
from repro.data.cryptogen import generate_encrypted_file
from repro.data.textgen import generate_text_file
from repro.engine import StagedEngine, StatsSink
from repro.ingest import PcapFileSource, RetryPolicy, SupervisedSource
from repro.net.pcap import iter_pcap, read_pcap, write_pcap
from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace
from repro.ml.svm.dagsvm import DagSvmClassifier
from repro.ml.svm.kernels import RbfKernel
from repro.ml.tree.cart import DecisionTreeClassifier
from repro.net.packet import Ipv4Header, Packet, UdpHeader
from repro.net.trace import Trace

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_hot_path.json"
DEFAULT_ENGINE_OUT = REPO_ROOT / "BENCH_engine.json"
DEFAULT_STATE_OUT = REPO_ROOT / "BENCH_state.json"
DEFAULT_INGEST_OUT = REPO_ROOT / "BENCH_ingest.json"
SEED = 2009

#: The paper's Table-3 per-flow state at b=32 (the "~200 B" claim).
PAPER_STATE_CLAIM_BYTES = 195

_NATURE_GENERATORS = (
    (TEXT, generate_text_file),
    (BINARY, generate_binary_file),
    (ENCRYPTED, generate_encrypted_file),
)


def synthetic_buffers(n: int, size: int, seed: int) -> "list[bytes]":
    """``n`` buffers of ``size`` bytes cycling through the three natures."""
    rng = np.random.default_rng(seed)
    return [
        _NATURE_GENERATORS[i % 3][1](size, rng)[:size] for i in range(n)
    ]


def labelled_training_files(
    per_class: int, size: int, seed: int
) -> "tuple[list[bytes], list[int]]":
    """A tiny labelled corpus for training the end-to-end classifier."""
    rng = np.random.default_rng(seed)
    files: "list[bytes]" = []
    labels: "list[int]" = []
    for nature, generator in _NATURE_GENERATORS:
        for _ in range(per_class):
            files.append(generator(size, rng))
            labels.append(int(nature))
    return files, labels


def _best_of(fn, repeat: int) -> float:
    """Best wall-clock seconds of ``repeat`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_extraction(
    n_buffers: int, buffer_bytes: int, repeat: int, seed: int
) -> dict:
    """Scalar vs batched full-vector (h1..h10) extraction."""
    buffers = synthetic_buffers(n_buffers, buffer_bytes, seed)

    def scalar() -> np.ndarray:
        return np.stack(
            [entropy_vector(b, FULL_FEATURES).values for b in buffers]
        )

    def batched() -> np.ndarray:
        return entropy_vectors_batch(buffers, FULL_FEATURES)

    max_abs_diff = float(np.abs(scalar() - batched()).max())
    if max_abs_diff > 1e-12:
        raise AssertionError(f"batch extraction diverged: {max_abs_diff}")
    scalar_s = _best_of(scalar, repeat)
    batch_s = _best_of(batched, repeat)
    return {
        "n_buffers": n_buffers,
        "buffer_bytes": buffer_bytes,
        "features": list(FULL_FEATURES.widths),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "scalar_vectors_per_s": n_buffers / scalar_s,
        "batch_vectors_per_s": n_buffers / batch_s,
        "speedup": scalar_s / batch_s,
        "max_abs_diff": max_abs_diff,
    }


def _three_class_blobs(
    n: int, n_features: int, rng: np.random.Generator
) -> "tuple[np.ndarray, np.ndarray]":
    """Entropy-vector-like clustered samples in [0, 1] with 3 classes."""
    centers = rng.random((3, n_features))
    y = rng.integers(0, 3, n)
    X = np.clip(centers[y] + rng.normal(0.0, 0.08, (n, n_features)), 0.0, 1.0)
    return X, y


def bench_cart_predict(n_rows: int, repeat: int, seed: int) -> dict:
    """Per-row node-walk vs compiled array CART prediction."""
    rng = np.random.default_rng(seed)
    X_train, y_train = _three_class_blobs(1500, 4, rng)
    clf = DecisionTreeClassifier().fit(X_train, y_train)
    X = np.clip(rng.random((n_rows, 4)), 0.0, 1.0)
    if not np.array_equal(clf.predict(X), clf.predict_nodewalk(X)):
        raise AssertionError("compiled CART prediction diverged")
    scalar_s = _best_of(lambda: clf.predict_nodewalk(X), repeat)
    batch_s = _best_of(lambda: clf.predict(X), repeat)
    return {
        "n_rows": n_rows,
        "tree_nodes": clf.node_count,
        "tree_depth": clf.depth,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "scalar_rows_per_s": n_rows / scalar_s,
        "batch_rows_per_s": n_rows / batch_s,
        "speedup": scalar_s / batch_s,
    }


def bench_dagsvm_predict(n_rows: int, repeat: int, seed: int) -> dict:
    """Per-sample DDAG walk vs batched per-level DAGSVM prediction."""
    rng = np.random.default_rng(seed)
    X_train, y_train = _three_class_blobs(90, 4, rng)
    clf = DagSvmClassifier(C=1000.0, kernel=RbfKernel(gamma=50.0))
    clf.fit(X_train, y_train)
    X, _ = _three_class_blobs(n_rows, 4, rng)
    if not np.array_equal(clf.predict(X), clf.predict_scalar(X)):
        raise AssertionError("batched DAGSVM prediction diverged")
    scalar_s = _best_of(lambda: clf.predict_scalar(X), repeat)
    batch_s = _best_of(lambda: clf.predict(X), repeat)
    return {
        "n_rows": n_rows,
        "support_vectors": clf.total_support_vectors_,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "scalar_rows_per_s": n_rows / scalar_s,
        "batch_rows_per_s": n_rows / batch_s,
        "speedup": scalar_s / batch_s,
    }


def bench_end_to_end(
    n_buffers: int, per_class: int, repeat: int, seed: int, model: str = "svm"
) -> dict:
    """``classify_buffer`` per flow vs one ``classify_buffers`` call."""
    files, labels = labelled_training_files(per_class, 2048, seed)
    classifier = IustitiaClassifier(model=model, buffer_size=32)
    classifier.fit_files(files, labels)
    buffers = synthetic_buffers(n_buffers, 64, seed + 1)

    def scalar() -> list:
        return [classifier.classify_buffer(b) for b in buffers]

    def batched() -> list:
        return classifier.classify_buffers(buffers)

    if scalar() != batched():
        raise AssertionError("batched classification diverged")
    scalar_s = _best_of(scalar, repeat)
    batch_s = _best_of(batched, repeat)
    return {
        "model": model,
        "n_buffers": n_buffers,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "scalar_classifications_per_s": n_buffers / scalar_s,
        "batch_classifications_per_s": n_buffers / batch_s,
        "speedup": scalar_s / batch_s,
    }


def fill_path_trace(n_flows: int, payload_bytes: int, seed: int) -> Trace:
    """One data packet per flow: the engine's pure fill path.

    Every packet opens a new flow whose payload already covers the
    classification target, so each one costs a hash, a CDB miss, a
    buffer insert, and a classification — the per-flow hot path.
    """
    buffers = synthetic_buffers(n_flows, payload_bytes, seed)
    packets = []
    dt = 0.001
    for i, payload in enumerate(buffers):
        packets.append(
            Packet(
                ip=Ipv4Header(
                    src=f"10.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}",
                    dst="192.168.0.1",
                    protocol=17,
                ),
                transport=UdpHeader(src_port=1024 + (i % 60000), dst_port=80),
                payload=payload,
                timestamp=i * dt,
            )
        )
    return Trace(packets=packets)


def bench_engine_throughput(
    n_flows: int,
    payload_bytes: int,
    per_class: int,
    batch_sizes: "tuple[int, ...]",
    repeat: int,
    seed: int,
    model: str = "svm",
) -> dict:
    """Fill-path packets/sec of ``StagedEngine`` across a max_batch sweep."""
    files, labels = labelled_training_files(per_class, 2048, seed)
    classifier = IustitiaClassifier(model=model, buffer_size=32)
    classifier.fit_files(files, labels)
    trace = fill_path_trace(n_flows, payload_bytes, seed + 1)
    pipeline = IustitiaConfig(buffer_size=32)

    def run(max_batch: int, telemetry: bool = True) -> StagedEngine:
        engine = StagedEngine(
            classifier,
            EngineConfig(
                max_batch=max_batch,
                max_delay=1e9,  # size-triggered only: isolate the batching knob
                telemetry=telemetry,
                pipeline=pipeline,
            ),
            sinks=[StatsSink()],
        )
        engine.process_trace(trace, sample_interval=1e9)
        return engine

    # Validate first: batching must change timing only, never labels.
    baseline = {c.key: c.label for c in run(1).stats.classified}
    for max_batch in batch_sizes:
        got = {c.key: c.label for c in run(max_batch).stats.classified}
        if got != baseline:
            raise AssertionError(
                f"max_batch={max_batch} changed labels on the fill path"
            )

    runs = {}
    for max_batch in batch_sizes:
        seconds = _best_of(lambda: run(max_batch), repeat)
        runs[str(max_batch)] = {
            "seconds": seconds,
            "packets_per_s": len(trace) / seconds,
            "flows_per_s": n_flows / seconds,
        }
    base = runs[str(batch_sizes[0])]["packets_per_s"]
    for entry in runs.values():
        entry["speedup_vs_unbatched"] = entry["packets_per_s"] / base

    # Instrumentation overhead: same fill path at the largest batch size
    # with the metrics registry bound vs telemetry=False (no instruments).
    # Engines are built outside the timed region (instrument creation is
    # one-time setup, not fill-path cost). Each round times one on-run
    # and one off-run back to back, alternating order, and the overhead
    # is the median of the per-round ratios: back-to-back pairing and
    # the median make the estimate robust to clock-speed drift and noisy
    # neighbours, which best-of-N on each arm is not (one lucky off
    # round fabricates overhead).
    probe_batch = batch_sizes[-1]

    def probe_engine(telemetry: bool) -> StagedEngine:
        return StagedEngine(
            classifier,
            EngineConfig(
                max_batch=probe_batch,
                max_delay=1e9,
                telemetry=telemetry,
                pipeline=pipeline,
            ),
            sinks=[StatsSink()],
        )

    def timed_run(engine: StagedEngine) -> float:
        start = time.perf_counter()
        engine.process_trace(trace, sample_interval=1e9)
        return time.perf_counter() - start

    ratios = []
    on_s = off_s = float("inf")
    for round_index in range(max(8 * repeat, 40)):
        engine_off = probe_engine(telemetry=False)
        engine_on = probe_engine(telemetry=True)
        if round_index % 2 == 0:
            off_sample = timed_run(engine_off)
            on_sample = timed_run(engine_on)
        else:
            on_sample = timed_run(engine_on)
            off_sample = timed_run(engine_off)
        ratios.append(on_sample / off_sample)
        on_s = min(on_s, on_sample)
        off_s = min(off_s, off_sample)
    telemetry_overhead = {
        "max_batch": probe_batch,
        "telemetry_on_s": on_s,
        "telemetry_off_s": off_s,
        "overhead_fraction": statistics.median(ratios) - 1.0,
    }

    return {
        "model": model,
        "n_flows": n_flows,
        "n_packets": len(trace),
        "payload_bytes": payload_bytes,
        "batch_sizes": list(batch_sizes),
        "runs": runs,
        "telemetry_overhead": telemetry_overhead,
    }


def bench_delay_ratio(
    n_flows: int,
    per_class: int,
    seed: int,
    model: str = "svm",
    duration: float = 60.0,
) -> dict:
    """Classification-delay / inter-arrival ratio on a gateway trace.

    The paper's Section-5 claim: mean per-flow classification wall-clock
    stays around a tenth of the mean packet inter-arrival at the
    observation point. The numerator comes from the engine's own
    telemetry (``engine_classify_batch_seconds`` total over classified
    flows); the denominator from the trace.
    """
    files, labels = labelled_training_files(per_class, 2048, seed)
    classifier = IustitiaClassifier(model=model, buffer_size=32)
    classifier.fit_files(files, labels)
    trace = generate_gateway_trace(
        GatewayTraceConfig(n_flows=n_flows, duration=duration, seed=seed)
    )
    engine = StagedEngine(
        classifier,
        EngineConfig(pipeline=IustitiaConfig(buffer_size=32)),
        sinks=[StatsSink()],
    )
    stats = engine.process_trace(trace, sample_interval=1e9)
    if stats.classifications == 0:
        raise AssertionError("delay-ratio trace produced no classifications")
    snapshot = engine.metrics.snapshot()
    classify_wall_s = snapshot["engine_classify_batch_seconds"]["sum"]
    mean_delay_s = classify_wall_s / stats.classifications
    inter_arrival_s = mean_inter_arrival(trace)
    return {
        "model": model,
        "n_flows": n_flows,
        "n_packets": len(trace),
        "classifications": stats.classifications,
        "classify_wall_s": classify_wall_s,
        "mean_classify_delay_s": mean_delay_s,
        "mean_inter_arrival_s": inter_arrival_s,
        "delay_ratio": delay_inter_arrival_ratio(mean_delay_s, trace),
    }


def fragmented_fill_trace(
    n_flows: int, payload_bytes: int, packets_per_flow: int, seed: int
) -> "tuple[Trace, list[list[bytes]]]":
    """A trace where every flow's payload arrives in several packets.

    Returns the trace plus each flow's chunk list (in arrival order), so
    state accounting can replay the exact fragmentation offline. Chunks
    interleave across flows round-robin — the realistic shape for the
    fold path, where many flows are mid-accumulation at once.
    """
    buffers = synthetic_buffers(n_flows, payload_bytes, seed)
    chunk_size = max(1, payload_bytes // packets_per_flow)
    flow_chunks = [
        [buf[i : i + chunk_size] for i in range(0, len(buf), chunk_size)]
        for buf in buffers
    ]
    packets = []
    dt = 0.0005
    rounds = max(len(chunks) for chunks in flow_chunks)
    step = 0
    for round_index in range(rounds):
        for flow_index, chunks in enumerate(flow_chunks):
            if round_index >= len(chunks):
                continue
            packets.append(
                Packet(
                    ip=Ipv4Header(
                        src=f"10.{(flow_index >> 16) & 255}."
                        f"{(flow_index >> 8) & 255}.{flow_index & 255}",
                        dst="192.168.0.2",
                        protocol=17,
                    ),
                    transport=UdpHeader(
                        src_port=1024 + (flow_index % 60000), dst_port=443
                    ),
                    payload=chunks[round_index],
                    timestamp=step * dt,
                )
            )
            step += 1
    return Trace(packets=packets), flow_chunks


def bench_state(
    n_flows: int,
    payload_bytes: int,
    packets_per_flow: int,
    per_class: int,
    repeat: int,
    seed: int,
    buffer_size: int = 32,
    model: str = "svm",
) -> dict:
    """Per-flow state bytes and fold-path throughput: incremental vs buffered.

    Both extractors run the same fragmented trace through the same
    classifier; labels must match exactly before anything is timed.
    State bytes are computed exactly for every flow in both
    representations (the buffered side charges window + distinct-counter
    walk + CDB record; the incremental side counters + boundary carry +
    CDB record), so the medians are directly comparable to the paper's
    ~200 B Table-3 figure.
    """
    from repro.core.accounting import flow_state_bytes
    from repro.core.extract import IncrementalEntropyExtractor

    files, labels = labelled_training_files(per_class, 2048, seed)
    classifier = IustitiaClassifier(model=model, buffer_size=buffer_size)
    classifier.fit_files(files, labels)
    trace, flow_chunks = fragmented_fill_trace(
        n_flows, payload_bytes, packets_per_flow, seed + 1
    )
    # The incremental extractor retains no payload, so the comparison
    # runs the pure first-b-bytes pipeline on both sides.
    pipeline = IustitiaConfig(buffer_size=buffer_size, strip_known_headers=False)

    def run(extractor: str, telemetry: bool = True) -> StagedEngine:
        engine = StagedEngine(
            classifier,
            EngineConfig(
                extractor=extractor,
                max_batch=32,
                max_delay=1e9,
                telemetry=telemetry,
                pipeline=pipeline,
            ),
            sinks=[StatsSink()],
        )
        engine.process_trace(trace, sample_interval=1e9)
        return engine

    # Equivalence gate: folding counters must reproduce the buffered
    # path's labels exactly on the same fragmented stream.
    buffered_labels = {c.key: c.label for c in run("batch").stats.classified}
    got = {c.key: c.label for c in run("incremental").stats.classified}
    if got != buffered_labels:
        raise AssertionError(
            "incremental extractor changed labels on the fold path"
        )

    feature_set = classifier.feature_set
    offline = IncrementalEntropyExtractor(feature_set, buffer_size)
    incremental_bytes = []
    buffered_bytes = []
    for chunks in flow_chunks:
        state = offline.new_state()
        for chunk in chunks:
            offline.fold(state, chunk)
        incremental_bytes.append(offline.state_bytes(state))
        window = b"".join(chunks)[:buffer_size]
        buffered_bytes.append(flow_state_bytes(window, feature_set))

    def describe(values: "list[float]") -> dict:
        return {
            "median": float(np.median(values)),
            "p90": float(np.percentile(values, 90)),
            "mean": float(np.mean(values)),
            "max": float(np.max(values)),
        }

    incremental_stats = describe(incremental_bytes)
    buffered_stats = describe(buffered_bytes)

    def throughput(fn) -> dict:
        seconds = _best_of(fn, repeat)
        return {
            "seconds": seconds,
            "packets_per_s": len(trace) / seconds,
            "flows_per_s": n_flows / seconds,
        }

    runs = {
        "batch": throughput(lambda: run("batch", telemetry=False)),
        "incremental": throughput(
            lambda: run("incremental", telemetry=False)
        ),
    }

    return {
        "model": model,
        "buffer_size": buffer_size,
        "n_flows": n_flows,
        "n_packets": len(trace),
        "payload_bytes": payload_bytes,
        "packets_per_flow": packets_per_flow,
        "state_bytes": {
            "incremental": incremental_stats,
            "buffered": buffered_stats,
        },
        "fold_throughput": {
            "runs": runs,
            "incremental_vs_buffered": (
                runs["incremental"]["packets_per_s"]
                / runs["batch"]["packets_per_s"]
            ),
        },
        "labels_identical": True,
    }


def bench_ingest(
    n_flows: int,
    per_class: int,
    repeat: int,
    seed: int,
    buffer_size: int = 32,
    model: str = "cart",
) -> dict:
    """Streaming vs materialized ingest over the same capture file.

    A synthetic gateway trace is written as a classic pcap, then run
    through the engine twice: materialized (``read_pcap`` into a
    ``Trace``, then ``process_trace``) and streaming (``process_source``
    over a ``PcapFileSource``). Label-and-counter equality is asserted
    before anything is timed. The throughput ratio is honest — both
    paths decode every record, so streaming buys *memory*, not speed —
    and the memory section proves it: peak traced bytes for each full
    run, plus a decode-only peak at 1x and 2x the trace size showing
    ingest memory does not grow with the capture.
    """
    files, labels = labelled_training_files(per_class, 2048, seed)
    classifier = IustitiaClassifier(model=model, buffer_size=buffer_size)
    classifier.fit_files(files, labels)
    pipeline = IustitiaConfig(
        buffer_size=buffer_size, strip_known_headers=False
    )
    config = EngineConfig(
        extractor="incremental", telemetry=False, pipeline=pipeline
    )

    def make_pcap(directory: Path, flows: int, tag: str) -> "tuple[Path, int]":
        trace = generate_gateway_trace(
            GatewayTraceConfig(
                n_flows=flows,
                duration=30.0,
                seed=seed + 1,
                app_header_probability=0.0,
            )
        )
        path = directory / f"ingest_{tag}.pcap"
        write_pcap(path, trace.packets)
        return path, len(trace)

    def engine_factory() -> StagedEngine:
        return StagedEngine(classifier, config, sinks=[StatsSink()])

    def materialized_run(path: Path) -> StagedEngine:
        trace = Trace(packets=read_pcap(path))
        with engine_factory() as engine:
            engine.process_trace(trace, sample_interval=1e9)
        return engine

    def streaming_run(path: Path) -> StagedEngine:
        with engine_factory() as engine:
            with PcapFileSource(path) as source:
                engine.process_source(source, sample_interval=1e9)
        return engine

    def peak_of(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def drain_decode(path: Path) -> None:
        for _ in iter_pcap(path):
            pass

    with tempfile.TemporaryDirectory(prefix="bench_ingest_") as tmp:
        directory = Path(tmp)
        path, n_packets = make_pcap(directory, n_flows, "1x")
        path_2x, n_packets_2x = make_pcap(directory, n_flows * 2, "2x")
        pcap_bytes = path.stat().st_size
        pcap_bytes_2x = path_2x.stat().st_size

        # Equivalence gate: on the serial runtime the streaming path
        # must be label-and-counter identical before its timing counts.
        stats_m = materialized_run(path).stats
        stats_s = streaming_run(path).stats
        labels_m = {c.key: c.label for c in stats_m.classified}
        labels_s = {c.key: c.label for c in stats_s.classified}
        if labels_s != labels_m or (
            stats_s.classifications,
            stats_s.cdb_hits,
            stats_s.unclassifiable,
        ) != (stats_m.classifications, stats_m.cdb_hits, stats_m.unclassifiable):
            raise AssertionError("streaming ingest changed labels or counters")

        materialized_s = _best_of(lambda: materialized_run(path), repeat)
        streaming_s = _best_of(lambda: streaming_run(path), repeat)

        # Memory runs are separate from the timed runs: tracemalloc
        # slows allocation severalfold, so the peaks are exact but the
        # seconds above stay uninstrumented.
        materialized_peak = peak_of(lambda: materialized_run(path))
        streaming_peak = peak_of(lambda: streaming_run(path))
        decode_peak_1x = peak_of(lambda: drain_decode(path))
        decode_peak_2x = peak_of(lambda: drain_decode(path_2x))

    return {
        "model": model,
        "extractor": "incremental",
        "buffer_size": buffer_size,
        "n_flows": n_flows,
        "n_packets": n_packets,
        "n_packets_2x": n_packets_2x,
        "pcap_bytes": pcap_bytes,
        "pcap_bytes_2x": pcap_bytes_2x,
        "throughput": {
            "materialized": {
                "seconds": materialized_s,
                "packets_per_s": n_packets / materialized_s,
            },
            "streaming": {
                "seconds": streaming_s,
                "packets_per_s": n_packets / streaming_s,
            },
            "streaming_vs_materialized": materialized_s / streaming_s,
        },
        "memory": {
            "materialized_peak_bytes": materialized_peak,
            "streaming_peak_bytes": streaming_peak,
            "streaming_vs_materialized": streaming_peak / materialized_peak,
            "decode_peak_bytes_1x": decode_peak_1x,
            "decode_peak_bytes_2x": decode_peak_2x,
            "decode_peak_2x_vs_1x": decode_peak_2x / decode_peak_1x,
        },
        "labels_identical": True,
    }


class _ScriptedFlakySource:
    """Packet source raising ``OSError`` at scripted global indices.

    Reconnect semantics: the cursor survives re-iteration, each fault
    fires once — exactly what a flapping socket looks like to a
    :class:`~repro.ingest.SupervisedSource`. (The test-suite twin lives
    in ``tests/ingest/faults.py``; benchmarks cannot import tests.)
    """

    def __init__(self, packets, fault_indices) -> None:
        self.packets = packets
        self.pending = set(fault_indices)
        self.cursor = 0

    def __iter__(self):
        while self.cursor < len(self.packets):
            if self.cursor in self.pending:
                self.pending.discard(self.cursor)
                raise OSError("scripted ingest fault")
            packet = self.packets[self.cursor]
            self.cursor += 1
            yield packet

    def close(self) -> None:
        pass


def bench_fault_recovery(
    n_flows: int,
    per_class: int,
    repeat: int,
    seed: int,
    fault_counts: "tuple[int, ...]" = (1, 4, 16),
    buffer_size: int = 32,
    model: str = "cart",
) -> dict:
    """Supervised ingest under injected faults vs the clean run.

    The same in-memory trace is streamed through ``process_source``
    clean, then under a ``SupervisedSource`` with N evenly spaced
    transient faults for each N in ``fault_counts``. Every faulty run
    must produce identical labels with zero packet loss and exactly N
    restarts before its timing counts. Backoff is zero and ``sleep`` is
    a no-op, so the overhead measured is pure supervision machinery
    (restart bookkeeping + generator re-entry), not waiting.
    """
    files, labels = labelled_training_files(per_class, 2048, seed)
    classifier = IustitiaClassifier(model=model, buffer_size=buffer_size)
    classifier.fit_files(files, labels)
    pipeline = IustitiaConfig(
        buffer_size=buffer_size, strip_known_headers=False
    )
    config = EngineConfig(
        extractor="incremental", telemetry=False, pipeline=pipeline
    )
    trace = generate_gateway_trace(
        GatewayTraceConfig(
            n_flows=n_flows,
            duration=30.0,
            seed=seed + 1,
            app_header_probability=0.0,
        )
    )
    packets = trace.packets
    policy = RetryPolicy(max_attempts=3, backoff_base=0.0)

    def run(fault_indices) -> "tuple[dict, int]":
        source = SupervisedSource(
            _ScriptedFlakySource(packets, fault_indices),
            policy=policy,
            sleep=lambda seconds: None,
        )
        with StagedEngine(classifier, config, sinks=[StatsSink()]) as engine:
            stats = engine.process_source(source, sample_interval=1e9)
        return (
            {c.key: c.label for c in stats.classified},
            source.restarts,
        )

    clean_labels, _ = run(())
    clean_s = _best_of(lambda: run(()), repeat)

    runs = {}
    for count in fault_counts:
        step = len(packets) // (count + 1)
        fault_indices = tuple(step * (i + 1) for i in range(count))

        def faulty():
            got_labels, restarts = run(fault_indices)
            if got_labels != clean_labels:
                raise AssertionError(
                    f"{count} injected faults changed labels"
                )
            if restarts != count:
                raise AssertionError(
                    f"expected {count} restarts, supervisor did {restarts}"
                )

        seconds = _best_of(faulty, repeat)
        runs[str(count)] = {
            "seconds": seconds,
            "packets_per_s": len(packets) / seconds,
            "restarts": count,
            "overhead_vs_clean": seconds / clean_s,
        }

    return {
        "model": model,
        "n_flows": n_flows,
        "n_packets": len(packets),
        "fault_counts": list(fault_counts),
        "retry_policy": {
            "max_attempts": policy.max_attempts,
            "backoff_base": policy.backoff_base,
        },
        "clean": {
            "seconds": clean_s,
            "packets_per_s": len(packets) / clean_s,
        },
        "runs": runs,
        "labels_identical": True,
        "zero_packet_loss": True,
    }


def collect_results(
    n_buffers: int = 256,
    buffer_bytes: int = 1024,
    cart_rows: int = 10_000,
    dagsvm_rows: int = 2_000,
    e2e_buffers: int = 512,
    e2e_per_class: int = 30,
    repeat: int = 3,
    seed: int = SEED,
) -> dict:
    """All hot-path measurements, as the ``BENCH_hot_path.json`` payload."""
    return {
        "generated_by": "benchmarks/run_perf.py",
        "seed": seed,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "extraction": bench_extraction(n_buffers, buffer_bytes, repeat, seed),
        "cart_predict": bench_cart_predict(cart_rows, repeat, seed),
        "dagsvm_predict": bench_dagsvm_predict(dagsvm_rows, repeat, seed),
        "end_to_end_classify": bench_end_to_end(
            e2e_buffers, e2e_per_class, repeat, seed
        ),
    }


def collect_engine_results(
    n_flows: int = 600,
    payload_bytes: int = 40,
    per_class: int = 30,
    batch_sizes: "tuple[int, ...]" = (1, 8, 32),
    repeat: int = 3,
    seed: int = SEED,
    delay_flows: int = 300,
    delay_duration: float = 60.0,
) -> dict:
    """Engine throughput sweep, as the ``BENCH_engine.json`` payload."""
    results = {
        "generated_by": "benchmarks/run_perf.py",
        "seed": seed,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "engine_throughput": bench_engine_throughput(
            n_flows, payload_bytes, per_class, batch_sizes, repeat, seed
        ),
        "classification_delay": bench_delay_ratio(
            delay_flows, per_class, seed, duration=delay_duration
        ),
    }
    runs = results["engine_throughput"]["runs"]
    if "1" in runs and "32" in runs:
        results["engine_throughput"]["speedup_32_vs_1"] = (
            runs["32"]["packets_per_s"] / runs["1"]["packets_per_s"]
        )
    # Headline numbers at the top level, where CI and readers look first.
    results["delay_ratio"] = results["classification_delay"]["delay_ratio"]
    results["telemetry_overhead_fraction"] = (
        results["engine_throughput"]["telemetry_overhead"]["overhead_fraction"]
    )
    return results


def collect_state_results(
    n_flows: int = 400,
    payload_bytes: int = 64,
    packets_per_flow: int = 4,
    per_class: int = 30,
    repeat: int = 3,
    seed: int = SEED,
) -> dict:
    """Extractor state comparison, as the ``BENCH_state.json`` payload."""
    results = {
        "generated_by": "benchmarks/run_perf.py",
        "seed": seed,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "extractor_state": bench_state(
            n_flows, payload_bytes, packets_per_flow, per_class, repeat, seed
        ),
    }
    # Headline numbers at the top level, where CI and readers look first —
    # the one canonical location for these scalars (they are deliberately
    # NOT repeated inside ``extractor_state``).
    state = results["extractor_state"]["state_bytes"]
    results["paper_claim_bytes"] = PAPER_STATE_CLAIM_BYTES
    results["incremental_median_bytes"] = state["incremental"]["median"]
    results["buffered_median_bytes"] = state["buffered"]["median"]
    results["incremental_below_buffered"] = (
        state["incremental"]["median"] < state["buffered"]["median"]
    )
    return results


def collect_ingest_results(
    n_flows: int = 300,
    per_class: int = 30,
    repeat: int = 3,
    seed: int = SEED,
) -> dict:
    """Streaming ingest comparison, as the ``BENCH_ingest.json`` payload."""
    results = {
        "generated_by": "benchmarks/run_perf.py",
        "seed": seed,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "ingest": bench_ingest(n_flows, per_class, repeat, seed),
        "fault_recovery": bench_fault_recovery(
            n_flows, per_class, repeat, seed
        ),
    }
    # Headline numbers at the top level, where CI and readers look first.
    ingest = results["ingest"]
    results["streaming_vs_materialized_throughput"] = (
        ingest["throughput"]["streaming_vs_materialized"]
    )
    results["streaming_peak_fraction_of_materialized"] = (
        ingest["memory"]["streaming_vs_materialized"]
    )
    results["decode_peak_2x_vs_1x"] = ingest["memory"]["decode_peak_2x_vs_1x"]
    recovery = results["fault_recovery"]["runs"]
    results["fault_recovery_overhead_max"] = max(
        entry["overhead_vs_clean"] for entry in recovery.values()
    )
    return results


def main(argv: "list[str] | None" = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--engine-out", type=Path, default=DEFAULT_ENGINE_OUT)
    parser.add_argument("--state-out", type=Path, default=DEFAULT_STATE_OUT)
    parser.add_argument(
        "--ingest-out", type=Path, default=DEFAULT_INGEST_OUT
    )
    parser.add_argument("--buffers", type=int, default=256)
    parser.add_argument("--buffer-bytes", type=int, default=1024)
    parser.add_argument("--cart-rows", type=int, default=10_000)
    parser.add_argument("--dagsvm-rows", type=int, default=2_000)
    parser.add_argument("--e2e-buffers", type=int, default=512)
    parser.add_argument("--e2e-per-class", type=int, default=30)
    parser.add_argument("--engine-flows", type=int, default=600)
    parser.add_argument("--engine-payload-bytes", type=int, default=40)
    parser.add_argument("--state-flows", type=int, default=400)
    parser.add_argument("--state-payload-bytes", type=int, default=64)
    parser.add_argument("--state-packets-per-flow", type=int, default=4)
    parser.add_argument("--ingest-flows", type=int, default=300)
    parser.add_argument("--delay-flows", type=int, default=300)
    parser.add_argument("--delay-duration", type=float, default=60.0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--tiny",
        "--quick",
        dest="tiny",
        action="store_true",
        help="smoke-test scale: a few buffers/rows/flows, one repeat",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.tiny:
        args.buffers, args.buffer_bytes = 8, 64
        args.cart_rows, args.dagsvm_rows = 64, 16
        args.e2e_buffers, args.e2e_per_class = 8, 4
        args.engine_flows = 48
        args.delay_flows, args.delay_duration = 40, 10.0
        # Enough flows that the CI fold-throughput ratio gate (>= 0.9)
        # is signal, not scheduler noise.
        args.state_flows = 120
        args.ingest_flows = 60
        args.repeat = 1
    results = collect_results(
        n_buffers=args.buffers,
        buffer_bytes=args.buffer_bytes,
        cart_rows=args.cart_rows,
        dagsvm_rows=args.dagsvm_rows,
        e2e_buffers=args.e2e_buffers,
        e2e_per_class=args.e2e_per_class,
        repeat=args.repeat,
        seed=args.seed,
    )
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    for name in ("extraction", "cart_predict", "dagsvm_predict", "end_to_end_classify"):
        entry = results[name]
        print(
            f"{name}: scalar {entry['scalar_s']:.4f}s, batched "
            f"{entry['batch_s']:.4f}s, speedup {entry['speedup']:.1f}x"
        )
    print(f"wrote {args.out}")

    engine_results = collect_engine_results(
        n_flows=args.engine_flows,
        payload_bytes=args.engine_payload_bytes,
        per_class=args.e2e_per_class,
        repeat=args.repeat,
        seed=args.seed,
        delay_flows=args.delay_flows,
        delay_duration=args.delay_duration,
    )
    args.engine_out.write_text(json.dumps(engine_results, indent=2) + "\n")
    for max_batch, entry in engine_results["engine_throughput"]["runs"].items():
        print(
            f"engine_throughput max_batch={max_batch}: "
            f"{entry['packets_per_s']:,.0f} packets/s "
            f"({entry['speedup_vs_unbatched']:.1f}x)"
        )
    overhead = engine_results["telemetry_overhead_fraction"]
    print(f"telemetry overhead on the fill path: {overhead:+.1%}")
    delay = engine_results["classification_delay"]
    print(
        f"classification delay: {delay['mean_classify_delay_s'] * 1e6:,.0f}us "
        f"mean vs {delay['mean_inter_arrival_s'] * 1e6:,.0f}us inter-arrival "
        f"(ratio {engine_results['delay_ratio']:.3f})"
    )
    print(f"wrote {args.engine_out}")

    state_results = collect_state_results(
        n_flows=args.state_flows,
        payload_bytes=args.state_payload_bytes,
        packets_per_flow=args.state_packets_per_flow,
        per_class=args.e2e_per_class,
        repeat=args.repeat,
        seed=args.seed,
    )
    args.state_out.write_text(json.dumps(state_results, indent=2) + "\n")
    state = state_results["extractor_state"]["state_bytes"]
    print(
        f"extractor_state: incremental median "
        f"{state['incremental']['median']:,.0f} B vs buffered "
        f"{state['buffered']['median']:,.0f} B per flow "
        f"(paper claim ~{state_results['paper_claim_bytes']} B)"
    )
    fold = state_results["extractor_state"]["fold_throughput"]
    print(
        f"fold_throughput: incremental "
        f"{fold['runs']['incremental']['packets_per_s']:,.0f} packets/s vs "
        f"buffered {fold['runs']['batch']['packets_per_s']:,.0f} packets/s "
        f"({fold['incremental_vs_buffered']:.2f}x)"
    )
    print(f"wrote {args.state_out}")

    ingest_results = collect_ingest_results(
        n_flows=args.ingest_flows,
        per_class=args.e2e_per_class,
        repeat=args.repeat,
        seed=args.seed,
    )
    args.ingest_out.write_text(json.dumps(ingest_results, indent=2) + "\n")
    ingest = ingest_results["ingest"]
    print(
        f"ingest throughput: streaming "
        f"{ingest['throughput']['streaming']['packets_per_s']:,.0f} packets/s "
        f"vs materialized "
        f"{ingest['throughput']['materialized']['packets_per_s']:,.0f} "
        f"({ingest_results['streaming_vs_materialized_throughput']:.2f}x)"
    )
    print(
        f"ingest memory: streaming peak "
        f"{ingest['memory']['streaming_peak_bytes']:,} B vs materialized "
        f"{ingest['memory']['materialized_peak_bytes']:,} B; decode peak at "
        f"2x trace {ingest_results['decode_peak_2x_vs_1x']:.2f}x of 1x"
    )
    recovery = ingest_results["fault_recovery"]
    for count, entry in recovery["runs"].items():
        print(
            f"fault recovery {count} faults: "
            f"{entry['packets_per_s']:,.0f} packets/s "
            f"({entry['overhead_vs_clean']:.2f}x of clean), zero loss"
        )
    print(f"wrote {args.ingest_out}")
    results["engine"] = engine_results
    results["state"] = state_results
    results["ingest"] = ingest_results
    return results


if __name__ == "__main__":
    main()
