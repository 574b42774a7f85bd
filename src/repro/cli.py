"""Command-line interface: generate traffic, train, classify pcaps.

Subcommands::

    python -m repro.cli gen-trace  out.pcap [--flows N] [--seed S]
                                   [--labels labels.json] [--headers P]
    python -m repro.cli train      model.json [--model svm|cart]
                                   [--buffer B] [--per-class N] [--seed S]
    python -m repro.cli classify   model.json capture.pcap
                                   [--labels labels.json] [--json out.json]
                                   [--metrics metrics.prom]
                                   [--extractor batch|incremental]
                                   [--on-error fail-fast|degrade|dead-letter]
                                   [--max-retries N]

``gen-trace`` writes a synthetic gateway trace as a classic pcap plus an
optional ground-truth label file; ``train`` builds a classifier from a
synthetic corpus and saves it as JSON (no pickle: models loaded at a
network boundary must not execute code); ``classify`` streams a pcap
through the online engine (:class:`repro.ingest.PcapFileSource` →
``process_source``, one record in memory at a time — captures larger
than RAM are fine), printing one line per classified flow and, when
ground truth is supplied, an accuracy report. ``--metrics`` dumps the
run's telemetry registry in Prometheus text exposition format.
``--on-error`` picks what a per-packet dispatch error does (fail-fast
raises as always; degrade drops the packet and continues; dead-letter
spools the failing packet to stderr and continues) and ``--max-retries
N`` supervises the pcap source itself, re-reading it up to N
consecutive times on I/O errors with already-delivered packets skipped
on replay.

The command implementations go through the stable :mod:`repro.api`
facade (``train`` / ``save_model`` / ``load_model`` / ``open_engine``),
so they double as usage examples. Module level imports only what a
plain ``classify`` runs; corpus and trace generation, ground-truth
scoring, supervision and the exposition load in the branch that uses
them.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api import load_model, open_engine, save_model
from repro.core.classifier import IustitiaClassifier
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.labels import FlowNature
from repro.ingest import PcapFileSource
from repro.net.flow import FlowKey
from repro.net.pcap import PcapError, write_pcap

__all__ = ["main"]


def _key_to_str(key: FlowKey) -> str:
    return f"{key.src}:{key.src_port}>{key.dst}:{key.dst_port}/{key.protocol}"


def _str_to_key(text: str) -> FlowKey:
    try:
        endpoints, protocol = text.rsplit("/", 1)
        src_part, dst_part = endpoints.split(">")
        src, src_port = src_part.rsplit(":", 1)
        dst, dst_port = dst_part.rsplit(":", 1)
        return FlowKey(
            src=src, src_port=int(src_port), dst=dst, dst_port=int(dst_port),
            protocol=int(protocol),
        )
    except ValueError as exc:
        raise ValueError(
            f"flow key {text!r} is not src:port>dst:port/proto ({exc})"
        ) from exc


def _spool_dead_letter(packet, exc) -> None:
    print(f"dead-letter: {packet.five_tuple}: {exc}", file=sys.stderr)


#: ``classify --on-error`` → ``process_source(on_error=...)``.
_ON_ERROR = {
    "fail-fast": None,
    "degrade": lambda packet, exc: None,
    "dead-letter": _spool_dead_letter,
}


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace

    try:
        config = GatewayTraceConfig(
            n_flows=args.flows,
            duration=args.duration,
            seed=args.seed,
            app_header_probability=args.headers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = generate_gateway_trace(config)
    write_pcap(args.output, trace.packets)
    print(f"wrote {len(trace)} packets / {len(trace.labels)} flows to {args.output}")
    if args.labels:
        payload = {
            _key_to_str(key): str(nature) for key, nature in trace.labels.items()
        }
        with open(args.labels, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote ground truth to {args.labels}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.data.corpus import build_corpus

    try:
        # What ``train`` fits, built before the corpus so that a bad
        # setting fails at once.
        classifier = IustitiaClassifier(model=args.model, buffer_size=args.buffer)
        print(f"building corpus ({args.per_class} files/class, seed {args.seed})...")
        corpus = build_corpus(per_class=args.per_class, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    classifier.fit_corpus(corpus)
    save_model(classifier, args.output)
    training_accuracy = classifier.score_files(
        [f.data for f in corpus], [f.nature for f in corpus]
    )
    print(f"trained {args.model} (b={args.buffer}); "
          f"training accuracy {training_accuracy:.1%}; saved to {args.output}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        classifier = load_model(args.model)
    except OSError as exc:
        print(f"error: cannot read model {args.model}: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {args.model} is not a saved classifier: {exc}",
              file=sys.stderr)
        return 2

    labels: dict[FlowKey, FlowNature] = {}
    if args.labels:
        try:
            with open(args.labels) as handle:
                raw = json.load(handle)
            if not isinstance(raw, dict):
                raise ValueError(f"holds {type(raw).__name__}, expected an object")
            labels = {
                _str_to_key(text): FlowNature.from_name(str(name))
                for text, name in raw.items()
            }
        except (OSError, ValueError) as exc:
            print(f"error: cannot read labels {args.labels}: {exc}",
                  file=sys.stderr)
            return 2

    extractor = args.extractor
    pipeline = IustitiaConfig(
        buffer_size=classifier.buffer_size,
        # The incremental extractor keeps a flow's first b bytes and
        # nothing past them, so it cannot re-window flows for header
        # stripping.
        strip_known_headers=(extractor == "batch"),
    )
    try:
        engine = open_engine(
            classifier,
            EngineConfig(extractor=extractor, pipeline=pipeline),
        )
    except ValueError as exc:
        print(f"error: cannot use --extractor {extractor}: {exc}",
              file=sys.stderr)
        return 2
    on_error = _ON_ERROR[args.on_error]

    # Stream the capture: one record in memory at a time, never a
    # materialized list[Packet] — memory is O(live flows), not O(pcap).
    # Every supervised pass re-decodes the file from its first record,
    # so the last pass opened holds the whole file's decode stats.
    opened: "list[PcapFileSource]" = []

    def _open_source() -> PcapFileSource:
        opened.append(PcapFileSource(args.pcap, registry=engine.metrics))
        return opened[-1]

    if args.max_retries:
        from repro.ingest.supervise import SupervisedSource

        source = SupervisedSource(
            _open_source,
            max_attempts=args.max_retries,
            registry=engine.metrics,
            name="classify",
        )
    else:
        source = _open_source()
    try:
        with engine, source:
            stats = engine.process_source(source, on_error=on_error)
    except (PcapError, OSError) as exc:
        print(f"error: cannot read capture {args.pcap}: {exc}",
              file=sys.stderr)
        return 2
    decode = opened[-1].stats
    if args.max_retries and source.restarts:
        print(f"supervision: {source.restarts} source restarts, "
              f"zero packets replayed downstream", file=sys.stderr)
    if stats.dispatch_errors:
        print(f"supervision: {stats.dispatch_errors} dispatch errors "
              f"absorbed ({args.on_error})", file=sys.stderr)
    if decode.truncated_records or decode.skipped_frames or decode.decode_errors:
        print(
            f"decode: {decode.truncated_records} snaplen-truncated, "
            f"{decode.skipped_frames} non-IPv4 frames skipped, "
            f"{decode.decode_errors} undecodable",
            file=sys.stderr,
        )

    results = []
    for outcome in stats.classified:
        results.append({
            "flow": _key_to_str(outcome.key),
            "nature": str(outcome.label),
            "classified_at": round(outcome.classified_at, 6),
            "buffered_bytes": outcome.buffered_bytes,
        })
        if not args.json:
            print(f"{results[-1]['flow']:50s} -> {results[-1]['nature']}")
    if args.json:
        try:
            with open(args.json, "w") as handle:
                json.dump(results, handle, indent=2)
        except OSError as exc:
            print(f"error: cannot write flow labels {args.json}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote {len(results)} flow labels to {args.json}")

    print(f"packets {stats.packets}, flows classified {stats.classifications}, "
          f"cdb hits {stats.cdb_hits}, unclassifiable {stats.unclassifiable}")
    if args.metrics:
        if engine.metrics is None:
            print("error: engine telemetry is disabled; no metrics to write",
                  file=sys.stderr)
            return 2
        from repro.obs.exposition import render_text

        try:
            with open(args.metrics, "w") as handle:
                handle.write(render_text(engine.metrics))
        except OSError as exc:
            print(f"error: cannot write metrics {args.metrics}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote telemetry exposition to {args.metrics}")
    if labels:
        from repro.net.trace import Trace

        try:
            report = engine.evaluate_against(Trace(packets=[], labels=labels))
        except ValueError as exc:
            print(f"error: cannot score against labels {args.labels}: {exc}",
                  file=sys.stderr)
            return 2
        print("accuracy vs ground truth: "
              + ", ".join(f"{k}={v:.1%}" for k, v in report.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Iustitia flow-nature identification"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-trace", help="generate a synthetic gateway pcap")
    gen.add_argument("output", help="pcap path to write")
    gen.add_argument("--flows", type=int, default=300)
    gen.add_argument("--duration", type=float, default=60.0)
    gen.add_argument("--seed", type=int, default=2009)
    gen.add_argument("--headers", type=float, default=0.0,
                     help="probability a flow starts with an app header")
    gen.add_argument("--labels", help="JSON path for ground-truth labels")
    gen.set_defaults(func=_cmd_gen_trace)

    train = sub.add_parser("train", help="train and save a classifier (JSON)")
    train.add_argument("output", help="model JSON path")
    train.add_argument("--model", choices=("svm", "cart"), default="svm")
    train.add_argument("--buffer", type=int, default=32)
    train.add_argument("--per-class", type=int, default=80)
    train.add_argument("--seed", type=int, default=2009)
    train.set_defaults(func=_cmd_train)

    classify = sub.add_parser("classify", help="classify flows in a pcap")
    classify.add_argument("model", help="model JSON from 'train'")
    classify.add_argument("pcap", help="capture to classify")
    classify.add_argument("--labels", help="ground-truth JSON from 'gen-trace'")
    classify.add_argument("--json", help="write per-flow results to this path")
    classify.add_argument(
        "--metrics",
        help="write the run's telemetry in Prometheus text format to this path",
    )
    classify.add_argument(
        "--extractor",
        choices=("batch", "incremental"),
        default="batch",
        help="per-flow feature pipeline: buffer all payload, re-window "
        "and extract at drain time (batch, default; enables header "
        "stripping) or keep only a flow's first b bytes and extract "
        "them as they are (incremental)",
    )
    classify.add_argument(
        "--on-error",
        choices=tuple(_ON_ERROR),
        default="fail-fast",
        help="per-packet dispatch error policy: raise immediately "
        "(fail-fast, default), count the error and keep classifying "
        "(degrade), or spool the failing packet to stderr and keep "
        "classifying (dead-letter)",
    )
    classify.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=0,
        help="supervise the pcap source: re-read it up to N consecutive "
        "times on I/O errors, skipping already-delivered "
        "packets on the replay (0 disables supervision)",
    )
    classify.set_defaults(func=_cmd_classify)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
