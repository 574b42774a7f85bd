"""The stable public facade of the Iustitia reproduction.

Four calls cover the whole workflow, so user code never imports from
``repro.core.*`` or ``repro.engine.*`` directly::

    import repro

    corpus = repro.build_corpus(per_class=100, seed=7)
    clf = repro.train(corpus, model="svm", buffer_size=32)
    repro.save_model(clf, "model.json")

    engine = repro.open_engine(clf, repro.EngineConfig(max_batch=32))
    stats = engine.process_trace(repro.generate_gateway_trace())
    print(repro.render_text(engine.metrics))      # telemetry scrape

To classify a capture without materializing it, stream a
:mod:`repro.ingest` source instead of a trace::

    with repro.open_engine(clf) as engine:
        with repro.PcapFileSource("capture.pcap") as source:
            stats = engine.process_source(source)   # O(live flows) memory

For flaky inputs, have a :class:`repro.SupervisedSource` re-read the
capture from a factory on ``OSError`` (already-delivered packets are
skipped), and pass ``process_source`` an ``on_error`` callable so a
per-packet dispatch failure is handed over instead of killing the run::

    supervised = repro.SupervisedSource(
        lambda: repro.PcapFileSource("capture.pcap"), max_attempts=5
    )
    with repro.open_engine(clf) as engine, supervised:
        stats = engine.process_source(
            supervised, on_error=lambda packet, exc: None
        )

* :func:`train` — fit an :class:`IustitiaClassifier` on a labelled
  corpus;
* :func:`save_model` / :func:`load_model` — JSON persistence (never
  pickle: models cross network boundaries);
* :func:`open_engine` — build a :class:`StagedEngine` from one
  :class:`EngineConfig`, optionally attaching result sinks (any object
  satisfying the :class:`~repro.engine.sinks.ResultSink` protocol) and
  a shared :class:`~repro.MetricsRegistry`.

Everything here is re-exported at the top level (``repro.train`` etc.)
and covered by the audited ``repro.__all__``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.classifier import IustitiaClassifier, TrainingMethod
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.features import PHI_SVM_PRIME, FeatureSet
from repro.engine.engine import StagedEngine
from repro.engine.sinks import ResultSink, StatsSink
from repro.ml.persistence import load_classifier, save_classifier
from repro.obs.metrics import MetricsRegistry

__all__ = ["load_model", "open_engine", "save_model", "train"]


def train(
    corpus,
    *,
    model: str = "svm",
    buffer_size: int = 32,
    feature_set: "FeatureSet | None" = None,
    training: TrainingMethod = TrainingMethod.FIRST_B,
    header_threshold: int = 0,
    gamma: float = 50.0,
    C: float = 1000.0,
    rng: "np.random.Generator | None" = None,
) -> IustitiaClassifier:
    """Fit a flow-nature classifier on a labelled corpus.

    ``corpus`` is a :class:`repro.Corpus` or any iterable of
    :class:`repro.LabeledFile`. Defaults reproduce the paper's
    headline model: SVM-RBF (gamma=50, C=1000) over the primed SVM
    feature set, trained on each file's first ``buffer_size`` bytes.
    Returns the fitted classifier.
    """
    classifier = IustitiaClassifier(
        model=model,
        feature_set=feature_set if feature_set is not None else PHI_SVM_PRIME,
        buffer_size=buffer_size,
        training=training,
        header_threshold=header_threshold,
        gamma=gamma,
        C=C,
        rng=rng,
    )
    return classifier.fit_corpus(corpus)


def save_model(classifier: IustitiaClassifier, path) -> None:
    """Write a fitted classifier (model + config) to ``path`` as JSON."""
    save_classifier(classifier, path)


def load_model(path) -> IustitiaClassifier:
    """Load a classifier written by :func:`save_model`."""
    return load_classifier(path)


def open_engine(
    classifier,
    config: "EngineConfig | IustitiaConfig | None" = None,
    *,
    sink: "ResultSink | list[ResultSink] | tuple[ResultSink, ...] | None" = None,
    rng: "np.random.Generator | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> StagedEngine:
    """Build a staged online engine around a classifier.

    ``classifier`` is an :class:`IustitiaClassifier` or a path to a
    model saved by :func:`save_model` (loaded for you). ``config`` is an
    :class:`EngineConfig` (an :class:`IustitiaConfig` is accepted and
    wrapped; None means defaults at the classifier's ``buffer_size``).
    ``sink`` attaches one result sink or a sequence of them — anything
    implementing the ``ResultSink`` protocol (``on_flow_classified`` /
    ``on_packet``, and optionally ``on_flows_classified``, which gets
    each drain in one call; a sink missing either required method is a
    ``TypeError``). A ``StatsSink``
    always rides along (added when ``sink`` doesn't include one), so
    ``engine.stats.classified`` and ``engine.evaluate_against`` work
    regardless of what else is attached. ``registry`` shares a metrics
    registry with the engine's instruments (one is created per engine
    otherwise, unless ``config.telemetry`` is off).

    ``EngineConfig(extractor="incremental")`` switches the engine's
    per-flow feature pipeline from buffering every payload byte to
    keeping a flow's first ``b`` bytes only (charged as the paper's
    ~200 B counter-table model of that window); it requires a pure
    first-``b``-bytes pipeline (no header stripping/skipping, no random
    skip).

    The engine runs every stage inline on the calling thread, in
    arrival order.

    The returned engine is a context manager: ``with
    repro.open_engine(...) as engine:`` guarantees a final flush of
    every attached sink. ``close()`` is idempotent; processing packets
    after it — or calling ``finish()`` twice with no packets in between
    — raises :class:`repro.EngineClosedError`.

    For captures that should never be materialized, feed the engine a
    streaming source — ``engine.process_source(PcapFileSource(path))``
    decodes one record at a time (see :mod:`repro.ingest`).
    ``process_source`` accepts an ``on_error`` callable for per-packet
    dispatch faults, and :class:`repro.SupervisedSource` re-reads a
    failing capture from a factory — see DESIGN.md's "Ingest
    supervision" for the full fault contract.
    """
    if isinstance(classifier, (str, os.PathLike)):
        classifier = load_model(classifier)
    if not isinstance(classifier, IustitiaClassifier):
        raise TypeError(
            "classifier must be an IustitiaClassifier or a saved-model path, "
            f"got {type(classifier).__name__}"
        )
    if config is not None and not isinstance(
        config, (EngineConfig, IustitiaConfig)
    ):
        raise TypeError(
            f"config must be an EngineConfig, got {type(config).__name__}"
        )
    sinks = None
    if sink is not None:
        sinks = list(sink) if isinstance(sink, (list, tuple)) else [sink]
        if not any(isinstance(candidate, StatsSink) for candidate in sinks):
            sinks.insert(0, StatsSink())
    return StagedEngine(
        classifier, config, rng=rng, sinks=sinks, registry=registry
    )
