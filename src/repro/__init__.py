"""Iustitia: high-speed flow nature identification (ICDCS 2009 reproduction).

Classifies network flows as **text**, **binary**, or **encrypted** from the
entropy vector of their first bytes, following Khakpour & Liu, *"Iustitia:
An Information Theoretical Approach to High-speed Flow Nature
Identification"*, ICDCS 2009.

Quickstart (the stable facade — see :mod:`repro.api`)::

    import repro

    corpus = repro.build_corpus(per_class=100, seed=7)
    clf = repro.train(corpus, model="svm", buffer_size=32)
    engine = repro.open_engine(clf, repro.EngineConfig(max_batch=32))
    trace = repro.generate_gateway_trace()
    stats = engine.process_trace(trace)
    print(stats.classifications, engine.evaluate_against(trace))
    print(repro.render_text(engine.metrics))   # telemetry scrape

Streaming: ``engine.process_source(repro.PcapFileSource(path))``
classifies a capture of any size in bounded memory; ``process_source``
takes any iterable of packets and is the only loop that feeds the
engine — see :mod:`repro.ingest`. ``repro.SupervisedSource(factory)``
re-reads a capture through transient ``OSError`` faults, and
``process_source(..., on_error=callable)`` absorbs per-packet dispatch
faults instead of raising.

Subpackages: ``repro.core`` (entropy vectors, the offline (delta,
epsilon) estimation study, classifier, CDB, config), ``repro.engine``
(staged online engine and its serial runtime), ``repro.ingest``
(the streaming pcap source + source supervision),
``repro.obs`` (telemetry), ``repro.ml`` (CART, SVM/SMO/DAGSVM),
``repro.streaming`` (stream-entropy estimation), ``repro.net``
(packets, flows, pcap, trace generation), ``repro.data`` (synthetic
corpus), ``repro.analysis`` (KL/JSD divergences), ``repro.experiments``
(benchmark harness).

``import repro`` loads only the modules a classify pass runs
(``load_model`` → ``open_engine`` → ``process_source``); the training,
trace-generation, scrape and paper-study names above (``build_corpus``,
``generate_gateway_trace``, ``render_text``, ...) resolve on first use.
"""

from repro._lazy import lazy_exports
from repro.api import load_model, open_engine, save_model, train
from repro.core import (
    BINARY,
    ENCRYPTED,
    TEXT,
    ClassificationDatabase,
    EngineConfig,
    EntropyVector,
    FeatureSet,
    FlowNature,
    IustitiaClassifier,
    IustitiaConfig,
    TrainingMethod,
    entropy_vector,
    kgram_entropy,
)
from repro.core.features import (
    FULL_FEATURES,
    PHI_CART,
    PHI_CART_PRIME,
    PHI_SVM,
    PHI_SVM_PRIME,
)
from repro.engine import (
    CallbackSink,
    ClassifiedFlow,
    EngineClosedError,
    QueueSink,
    ResultSink,
    StagedEngine,
    StatsSink,
)
from repro.ingest import PacketSource, PcapFileSource
from repro.ml import DecisionTreeClassifier
from repro.net import (
    FlowKey,
    Packet,
    PcapDecodeStats,
    PcapError,
    iter_pcap,
    read_pcap,
    write_pcap,
)
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, Timer

# Training, trace generation and the paper-study libraries: nothing the
# classify pass runs, so they load on first access.
__getattr__, __dir__ = lazy_exports(globals(), {
    "Corpus": "repro.data.corpus",
    "DagSvmClassifier": "repro.ml.svm.dagsvm",
    "EntropyEstimator": "repro.core.estimation",
    "GatewayTraceConfig": "repro.net.tracegen",
    "LabeledFile": "repro.data.corpus",
    "SupervisedSource": "repro.ingest.supervise",
    "Trace": "repro.net.trace",
    "build_corpus": "repro.data.corpus",
    "generate_gateway_trace": "repro.net.tracegen",
    "jensen_shannon_divergence": "repro.analysis.divergence",
    "kl_divergence": "repro.analysis.divergence",
    "render_text": "repro.obs.exposition",
    "validate_text": "repro.obs.exposition",
})

__version__ = "1.5.0"

__all__ = [
    "BINARY",
    "CallbackSink",
    "ClassificationDatabase",
    "ClassifiedFlow",
    "Corpus",
    "Counter",
    "DagSvmClassifier",
    "DecisionTreeClassifier",
    "ENCRYPTED",
    "EngineClosedError",
    "EngineConfig",
    "EntropyEstimator",
    "EntropyVector",
    "FULL_FEATURES",
    "FeatureSet",
    "FlowKey",
    "FlowNature",
    "Gauge",
    "GatewayTraceConfig",
    "Histogram",
    "IustitiaClassifier",
    "IustitiaConfig",
    "LabeledFile",
    "MetricsRegistry",
    "PHI_CART",
    "PHI_CART_PRIME",
    "PHI_SVM",
    "PHI_SVM_PRIME",
    "Packet",
    "PacketSource",
    "PcapDecodeStats",
    "PcapError",
    "PcapFileSource",
    "QueueSink",
    "ResultSink",
    "StagedEngine",
    "StatsSink",
    "SupervisedSource",
    "TEXT",
    "Timer",
    "Trace",
    "TrainingMethod",
    "build_corpus",
    "entropy_vector",
    "generate_gateway_trace",
    "iter_pcap",
    "jensen_shannon_divergence",
    "kgram_entropy",
    "kl_divergence",
    "load_model",
    "open_engine",
    "read_pcap",
    "render_text",
    "save_model",
    "train",
    "validate_text",
    "write_pcap",
]
