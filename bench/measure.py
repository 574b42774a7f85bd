"""Measures one workload in this process and prints one JSON document.

``run.py`` starts this file as a fresh child per workload, so that peak
RSS, the heap and the allocator state belong to one workload only. The
phases run in a fixed order:

1. *setup*: fresh interpreters time ``import repro`` -> ``load_model`` ->
   ``open_engine`` (``setup_probe.py``);
2. *closed loop*: a short warm-up, then timed passes, each on a fresh
   engine after ``gc.collect()``; packets are handed to
   ``engine.process_source`` as fast as it takes them, and the pass is
   timed against the interleaved speed reference (``reference.py``). With
   tracing, passes with telemetry off alternate with the first timed ones;
3. *paced, open loop*: each packet is due at ``t0 + timestamp`` (the
   packet clock is the wall clock), the generator sleeps until then and
   never skips, and label latency is timed from the due time;
4. *traced* (``--phases`` containing ``trace``): one more closed-loop pass
   with spans recorded at the layer boundaries, then standalone replays.

Load, generator and engine share one thread. After the workload is loaded
its objects are frozen out of the collector (``gc.freeze``), so that the
engine's garbage collections do not walk the load generator's heap; GC
stays on for the engine.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

import repro
from repro.net.hashing import flow_hash

import workloads
from reference import SpeedReference, normalized_seconds
from estimators import (
    labels_digest,
    percentile,
    summarize,
    windowed_percentiles,
)
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent

#: A label later than this after its due time missed its deadline.
DEADLINE_S = 0.25
#: The generator handed a packet over this much after it was due.
LATE_S = 0.005
#: Tolerance when comparing packet-clock times that went through a pcap.
CLOCK_EPS = 1e-5


class WallClockSink(repro.ResultSink):
    """Stamps the wall clock of every ``on_flow_classified``.

    The attached ``StatsSink`` keeps the outcomes in the same order, so
    ``zip(stats.classified, sink.walls)`` pairs each label with its time.
    """

    def __init__(self) -> None:
        self.walls: list = []

    def on_flow_classified(self, outcome, packets) -> None:
        self.walls.append(perf_counter())


class Pass:
    """What one pass over a workload produced."""

    def __init__(self, t0, wall_s, stats, walls, late, decode) -> None:
        self.t0 = t0
        self.wall_s = wall_s
        #: Set on passes timed against the speed reference.
        self.raw_s = self.normalized_s = wall_s
        self.packets = stats.packets
        self.cdb_hits = stats.cdb_hits
        self.classifications = stats.classifications
        self.unclassifiable = stats.unclassifiable
        self.outcomes = stats.classified
        self.walls = walls
        self.late = late
        self.decode = decode

    @property
    def rate(self) -> float:
        """Packets per normalized second (per wall second when untimed)."""
        return self.packets / self.normalized_s


def paced(source, due_ts, t0: float, late: list):
    """Hand over each packet when it is due: open loop, nothing skipped.

    The packet is taken from ``source`` only once it is due, so for a
    capture file the decode is part of what a late label pays for. The
    wait sleeps while the next packet is over 2 ms away and spins for the
    rest: a sleep per packet costs ~40 us of CPU on this kind of VM, as
    much as the engine's own work on the packet.
    """
    advance = iter(source).__next__
    for ts in due_ts:
        due = t0 + ts
        now = perf_counter()
        if due - now > 0.002:
            sleep(due - now - 0.001)
            now = perf_counter()
        while now < due:
            now = perf_counter()
        late.append(now - due)
        yield advance()


def close_source(source) -> None:
    """Capture sources hold a file; a list of packets has nothing to close."""
    close = getattr(source, "close", None)
    if close is not None:
        close()


def run_pass(
    workload, model, *, runtime, pace=False, telemetry=True, limit=None,
    reference=None, instrument=None, inspect=None,
) -> Pass:
    """One pass on a fresh engine; ``limit`` cuts it short (warm-up).

    With a ``reference`` the pass is timed in normalized seconds.
    """
    sink = WallClockSink()
    engine = repro.open_engine(
        model,
        workloads.engine_config(workload.name, telemetry=telemetry, runtime=runtime),
        sink=[sink],
    )
    source = workload.open_source()
    feed = source if limit is None else itertools.islice(source, limit)
    if instrument is not None:
        feed = instrument(engine, feed)
    late: list = []
    slices: list = []
    if reference is not None:
        feed = reference.interleave(feed, slices)
    gc.collect()
    t0 = perf_counter()
    if pace:
        feed = paced(feed, workload.due_ts, t0, late)
    try:
        engine.process_source(feed)
        wall_s = perf_counter() - t0
        closing_s = reference.run() if reference is not None else 0.0
    finally:
        engine.close()
        close_source(source)
    result = Pass(
        t0, wall_s, engine.stats, sink.walls, late, getattr(source, "stats", None)
    )
    if reference is not None:
        result.raw_s, result.normalized_s = normalized_seconds(
            t0, slices, t0 + wall_s, closing_s
        )
    if inspect is not None:
        inspect(engine, result)
    return result


class Checker:
    """The correctness checks, accumulated over every full pass of a run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.errors: list = []
        self.digests: set = set()
        self.attempted = 0
        self.failed = 0
        self.accuracy = 0.0
        self.labelled_frac = 0.0
        self._key_bytes: dict = {}

    def check(self, result: Pass, what: str) -> None:
        workload = self.workload
        offered = len(workload.due_ts)
        if result.packets != offered:
            self.errors.append(
                f"{what}: engine counted {result.packets} packets, {offered} offered"
            )
        truth = workload.truth
        key_bytes = self._key_bytes
        labelled = set()
        right = 0
        pairs = []
        for outcome in result.outcomes:
            expected = truth.get(outcome.key)
            if expected is None:
                self.errors.append(f"{what}: label for a flow never offered")
                return
            labelled.add(outcome.key)
            right += outcome.label == expected
            encoded = key_bytes.get(outcome.key)
            if encoded is None:
                encoded = key_bytes[outcome.key] = outcome.key.to_bytes()
            pairs.append((encoded, int(outcome.label)))
        # Every flow offered is labelled or was counted unclassifiable.
        unaccounted = max(0, len(truth) - len(labelled) - result.unclassifiable)
        self.attempted += len(truth)
        self.failed += unaccounted
        if unaccounted:
            self.errors.append(
                f"{what}: {unaccounted} flows neither labelled nor unclassifiable"
            )
        self.digests.add(labels_digest(pairs))
        if len(self.digests) > 1:
            self.errors.append(f"{what}: labels differ from the earlier passes")
        self.accuracy = right / len(result.outcomes) if result.outcomes else 0.0
        self.labelled_frac = len(labelled) / len(truth)


def label_latencies(workload, result: Pass) -> list:
    """``(due, latency_s)`` of each flow's first, window-complete label."""
    complete = workload.complete_ts
    seen = set()
    samples = []
    for outcome, wall in zip(result.outcomes, result.walls):
        key = outcome.key
        if key in seen:
            continue
        seen.add(key)
        due = complete.get(key)
        # Labelled before its window-complete packet: a timeout did it.
        if due is None or outcome.classified_at < due - CLOCK_EPS:
            continue
        samples.append((due, wall - (result.t0 + due)))
    return samples


def setup_phase(workload, runtime: str, runs: int) -> dict:
    """Time the set-up path in ``runs`` fresh interpreters.

    They inherit this process's ``PYTHONPATH`` (``src`` and ``bench``).
    """
    samples: dict = {"import_s": [], "load_model_s": [], "open_engine_s": []}
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             workload.name, str(workload.model_path), runtime],
            check=True, capture_output=True, text=True, timeout=120,
        )
        for key, value in json.loads(done.stdout).items():
            samples[key].append(value)
    samples["setup_s"] = [sum(parts) for parts in zip(*samples.values())]
    return samples


def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the traced pass ------------------------------------------------------------


def traced_pass(workload, runtime: str, untraced_wall_s: float, trace_path) -> dict:
    """One closed-loop pass with spans at every layer boundary."""
    tracer = Tracer()
    windows: list = []
    peaks = {"cdb": 0, "pending": 0}

    def instrument(engine, feed):
        wrap = tracer.wrap
        table = engine.table

        def batch_size(args, _labels):
            if len(windows) < 512:
                windows.append(args[0][0].window)
            return len(args[0])

        def purged(_args, removed):
            # The CDB only shrinks inside a purge: it peaked right before.
            peaks["cdb"] = max(peaks["cdb"], len(table) + removed)
            return removed

        def expired(_args, count):
            # Flows pending right before a buffer-timeout flush.
            peaks["pending"] = max(peaks["pending"], table.pending_count + count)
            return count

        wrap(engine, "process_packet", "engine.process_packet")
        wrap(engine.runtime, "dispatch", "runtime.dispatch")
        for pipeline in engine.pipelines:
            wrap(pipeline, "ingest", "shard.ingest")
            wrap(pipeline, "apply", "shard.apply")
        wrap(engine, "classify_labels", "engine.classify_labels", batch_size)
        if not engine.extractor.retains_payload:
            # Only a streaming extractor folds k-grams; for the batch
            # extractor "fold" is a buffer append, counted as shard ingest.
            wrap(engine.extractor, "fold", "extract.fold")
            wrap(
                engine.extractor, "fold_batch", "extract.fold_batch",
                lambda args, _none: sum(len(chunks) for chunks in args[1]),
            )
        wrap(engine.extractor, "finalize", "extract.finalize")
        wrap(engine.classifier, "predict_vectors", "ml.predict")
        wrap(engine, "flush_timeouts", "engine.flush_timeouts", expired)
        wrap(engine, "finish", "engine.finish")
        wrap(table, "purge_inactive", "table.purge_inactive", purged)
        for sink in engine.sinks:
            wrap(sink, "on_packet", "sink.on_packet")
            wrap(sink, "on_flow_classified", "sink.on_flow_classified")
        if workload.pcap_path is not None:
            return tracer.wrap_iterator(feed, "ingest.next")
        return feed

    extras: dict = {}

    def inspect(engine, result):
        peaks["cdb"] = max(
            [peaks["cdb"], len(engine.table)]
            + [size for _ts, size in engine.stats.cdb_size_series]
        )
        extras["state_bytes"] = sorted(
            engine.extractor.state_bytes(window) for window in windows
        )
        renders = []
        for _ in range(5):
            started = perf_counter()
            repro.render_text(engine.metrics)
            renders.append(perf_counter() - started)
        extras["render_s"] = renders
        extras["purge_expected"] = (
            result.classifications >= engine.config.purge_trigger_flows
        )
        # One-packet flows forward nothing: their only CDB hits are bare FINs.
        extras["forward_expected"] = result.cdb_hits > engine.stats.fin_removals

    # Fresh model: the wrapper on predict_vectors must not outlive the pass.
    model = repro.load_model(workload.model_path)
    result = run_pass(
        workload, model, runtime=runtime, instrument=instrument, inspect=inspect
    )
    spans = tracer.summary()
    expected = [
        "engine.process_packet", "runtime.dispatch", "shard.ingest",
        "shard.apply", "engine.classify_labels", "extract.finalize",
        "ml.predict", "engine.finish", "sink.on_flow_classified",
    ]
    if extras["forward_expected"]:
        expected.append("sink.on_packet")
    if workload.pcap_path is not None:
        expected.append("ingest.next")
    if "extract.fold_batch" in tracer.names:
        expected.append("extract.fold_batch")
    if workload.due_ts[-1] - workload.due_ts[0] >= 1.0:
        expected.append("engine.flush_timeouts")
    if extras["purge_expected"]:
        expected.append("table.purge_inactive")
    tracer.require_hit(spans, expected)
    tracer.dump(trace_path, result.t0)

    def span(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0})

    wall = result.wall_s
    packets = result.packets
    flows = span("engine.classify_labels")["count"] or 1.0
    fold_s = span("extract.fold")["total_s"] + span("extract.fold_batch")["total_s"]
    fold_chunks = span("extract.fold")["calls"] + span("extract.fold_batch")["count"]
    decode = result.decode
    metrics = {
        "ingest.next_ns_per_pkt": (span("ingest.next")["total_s"] / packets * 1e9, "ns"),
        "ingest.next_share": (span("ingest.next")["total_s"] / wall, "fraction"),
        "ingest.capture_mb": (
            workload.pcap_path.stat().st_size / 2**20 if workload.pcap_path else 0.0,
            "MB",
        ),
        "ingest.truncated_records": (decode.truncated_records if decode else 0, "count"),
        "ingest.skipped_records": (
            decode.skipped_frames + decode.decode_errors if decode else 0, "count"
        ),
        "engine.process_packet_self_ns_per_pkt": (
            span("engine.process_packet")["self_s"] / packets * 1e9, "ns"
        ),
        "runtime.dispatch_self_ns_per_pkt": (
            span("runtime.dispatch")["self_s"] / packets * 1e9, "ns"
        ),
        "engine.shard_ingest_ns_per_pkt": (
            span("shard.ingest")["self_s"] / packets * 1e9, "ns"
        ),
        "engine.shard_ingest_share": (span("shard.ingest")["self_s"] / wall, "fraction"),
        "engine.classify_self_us_per_flow": (
            span("engine.classify_labels")["self_s"] / flows * 1e6, "us"
        ),
        "engine.apply_us_per_flow": (span("shard.apply")["total_s"] / flows * 1e6, "us"),
        "engine.batch_size_mean": (
            flows / max(1, span("engine.classify_labels")["calls"]), "flows"
        ),
        "engine.classify_calls": (span("engine.classify_labels")["calls"], "count"),
        "engine.cdb_hit_frac": (result.cdb_hits / packets, "fraction"),
        "engine.classified_flows": (result.classifications, "count"),
        "engine.unclassifiable_flows": (result.unclassifiable, "count"),
        "engine.flush_ms_total": (span("engine.flush_timeouts")["total_s"] * 1e3, "ms"),
        "engine.flush_calls": (span("engine.flush_timeouts")["calls"], "count"),
        "engine.expired_flows": (span("engine.flush_timeouts")["count"], "count"),
        "engine.purge_ms_total": (span("table.purge_inactive")["total_s"] * 1e3, "ms"),
        "engine.purge_calls": (span("table.purge_inactive")["calls"], "count"),
        "engine.purged_records": (span("table.purge_inactive")["count"], "count"),
        "engine.cdb_peak_records": (peaks["cdb"], "count"),
        "engine.pending_peak_flows": (peaks["pending"], "count"),
        "engine.state_bytes_per_flow_p50": (
            percentile(extras["state_bytes"], 0.5), "B"
        ),
        "sink.on_packet_ns_per_pkt": (
            span("sink.on_packet")["total_s"] / packets * 1e9, "ns"
        ),
        "sink.on_flow_us_per_flow": (
            span("sink.on_flow_classified")["total_s"] / flows * 1e6, "us"
        ),
        "extract.finalize_us_per_flow": (
            span("extract.finalize")["total_s"] / flows * 1e6, "us"
        ),
        "extract.finalize_share": (span("extract.finalize")["total_s"] / wall, "fraction"),
        "extract.fold_ns_per_chunk": (fold_s / max(1.0, fold_chunks) * 1e9, "ns"),
        "extract.fold_share": (fold_s / wall, "fraction"),
        "extract.fold_chunks": (fold_chunks, "count"),
        "ml.predict_us_per_flow": (span("ml.predict")["total_s"] / flows * 1e6, "us"),
        "ml.predict_share": (span("ml.predict")["total_s"] / wall, "fraction"),
        "ml.predict_calls": (span("ml.predict")["calls"], "count"),
        "obs.render_text_ms": (statistics.median(extras["render_s"]) * 1e3, "ms"),
        "trace.coverage_frac": (spans["_root_s"] / wall, "fraction"),
        "trace.overhead_frac": (wall / untraced_wall_s - 1.0, "fraction"),
    }
    if metrics["trace.coverage_frac"][0] < 0.90:
        raise AssertionError(
            f"trace covers {metrics['trace.coverage_frac'][0]:.3f} of the pass, "
            "under the 0.90 it must explain"
        )
    return metrics


def key_hash_ns(workload) -> float:
    """Standalone replay of key + hash on the workload's own packets."""
    source = workload.open_source()
    sample = list(itertools.islice(source, 20_000))
    close_source(source)
    of_packet = repro.FlowKey.of_packet
    times = []
    for _ in range(3):
        started = perf_counter()
        for packet in sample:
            flow_hash(of_packet(packet))
        times.append(perf_counter() - started)
    return statistics.median(times) / len(sample) * 1e9


# -- one run ------------------------------------------------------------------


def measure(args) -> dict:
    sizes = workloads.QUICK if args.quick else workloads.FULL
    e2e = "e2e" in args.phases
    trace = "trace" in args.phases
    workload = workloads.load(args.workload, args.seed, sizes)
    model = repro.load_model(workload.model_path)
    reference = SpeedReference()
    gc.collect()
    gc.freeze()
    baseline_mb = rss_mb()
    checker = Checker(workload)
    metrics: dict = {}

    def put(name, unit, samples):
        metrics[name] = {"unit": unit, **summarize(samples)}

    def put_value(name, unit, value, n=1):
        metrics[name] = {"unit": unit, "value": float(value), "iqr": 0.0, "n": n}

    # 1. setup
    setup = setup_phase(workload, args.runtime, 2 if args.quick else 5)
    put("setup_s", "s", setup["setup_s"])
    for part in ("import_s", "load_model_s", "open_engine_s"):
        put(f"api.{part}", "s", setup[part])

    # 2. closed loop
    run_pass(workload, model, runtime=args.runtime, limit=len(workload.due_ts) // 4)
    min_on = 2 if args.quick else (5 if e2e else 3)
    budget_s = 0.4 * args.seconds if e2e and not args.quick else 0.0
    on: list = []
    off: list = []
    raw_s: list = []
    slowdown: list = []
    started = perf_counter()
    while len(on) < min_on or perf_counter() - started < budget_s:
        result = run_pass(workload, model, runtime=args.runtime, reference=reference)
        checker.check(result, f"closed-loop pass {len(on) + 1}")
        on.append(result.rate)
        raw_s.append(result.raw_s)
        slowdown.append(result.raw_s / result.normalized_s)
        if trace and len(off) < 3:
            result = run_pass(
                workload, model, runtime=args.runtime, reference=reference,
                telemetry=False,
            )
            checker.check(result, f"telemetry-off pass {len(off) + 1}")
            off.append(result.rate)
    put("packets_per_s", "pkt/s", on)
    put("bench.raw_packets_per_s", "pkt/s", [len(workload.due_ts) / s for s in raw_s])
    put("bench.machine_slowdown", "ratio", slowdown)
    put_value(
        "bench.pass_spread_frac", "fraction",
        metrics["packets_per_s"]["iqr"] / metrics["packets_per_s"]["value"], len(on),
    )

    # 3. paced, open loop
    pass_s = workload.due_ts[-1]
    paced_passes = (
        max(3, int(0.6 * args.seconds // pass_s)) if e2e and not args.quick else 1
    )
    latencies: list = []
    late: list = []
    offered: list = []
    windows: dict = {0.5: [], 0.9: []}
    for index in range(paced_passes):
        result = run_pass(workload, model, runtime=args.runtime, pace=True)
        checker.check(result, f"paced pass {index + 1}")
        samples = label_latencies(workload, result)
        latencies.extend(latency for _due, latency in samples)
        late.extend(result.late)
        offered.append(result.rate)
        per_window = windowed_percentiles(
            samples, (0.5, 0.9), min_samples=5 if args.quick else 50
        )
        for q, values in per_window.items():
            windows[q].extend(values)
    if not windows[0.5]:
        checker.errors.append("paced phase: no window held enough label latencies")
        windows = {0.5: [0.0], 0.9: [0.0]}
    put("label_latency_p50_ms", "ms", [v * 1e3 for v in windows[0.5]])
    put("label_latency_p90_ms", "ms", [v * 1e3 for v in windows[0.9]])
    latencies.sort()
    late.sort()
    put("paced.offered_pkts_per_s", "pkt/s", offered)
    put_value("paced.label_latency_samples", "count", len(latencies))
    put_value("paced.label_latency_p99_ms", "ms", percentile(latencies, 0.99) * 1e3)
    put_value("paced.label_latency_max_ms", "ms", latencies[-1] * 1e3)
    put_value(
        "paced.deadline_miss_frac", "fraction",
        sum(v > DEADLINE_S for v in latencies) / len(latencies),
    )
    put_value("paced.gen_late_frac", "fraction", sum(v > LATE_S for v in late) / len(late))
    put_value("paced.gen_late_p99_ms", "ms", percentile(late, 0.99) * 1e3)

    # Before the traced pass: its span lists are the benchmark's memory.
    put_value("peak_rss_mb", "MB", peak_rss_mb())
    passes = len(on) + paced_passes
    put_value("accuracy", "fraction", checker.accuracy, passes)
    put_value("labelled_frac", "fraction", checker.labelled_frac, passes)

    # 4. traced pass and standalone replays
    if trace:
        workloads.CACHE_DIR.mkdir(exist_ok=True)
        layer = traced_pass(
            workload, args.runtime, statistics.median(raw_s),
            workloads.CACHE_DIR / f"trace-{workload.name}.json",
        )
        layer["net.key_hash_ns_per_pkt"] = (key_hash_ns(workload), "ns")
        layer["obs.telemetry_overhead_frac"] = (
            1.0 - statistics.median(on[: len(off)]) / statistics.median(off),
            "fraction",
        )
        layer["ml.train_s"] = (workload.train_s, "s")
        layer["bench.rss_baseline_mb"] = (baseline_mb, "MB")
        layer["bench.workload_gen_s"] = (workload.gen_s, "s")
        for name, (value, unit) in layer.items():
            put_value(name, unit, value)

    return {
        "workload": workload.name,
        "seed": args.seed,
        "runtime": args.runtime,
        "quick": args.quick,
        "seconds": args.seconds,
        "phases": args.phases,
        "correct": not checker.errors,
        "errors": checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "labels_sha256": next(iter(checker.digests)) if checker.digests else "",
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phases", default="e2e", choices=("e2e", "trace", "e2e+trace"))
    parser.add_argument("--runtime", default="serial")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    document = measure(args)
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
