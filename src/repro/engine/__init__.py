"""Staged online engine: explicit, composable pipeline stages.

The package splits the paper's Figure-1 engine into the stages real
high-rate classifiers are built from (cf. ITCM and FastFlow's
collection / classification / export pipelines):

* :mod:`~repro.engine.flow_table` — the one flow table: pending
  buffers + the CDB, keyed by flow ID;
* :mod:`~repro.engine.deadlines`  — min-heap deadline wheel for
  O(expired) buffer-timeout flushes;
* :mod:`~repro.engine.batcher`    — micro-batches ready flows into
  one classify drain (extractor ``finalize`` + vectorized predict);
* :mod:`~repro.engine.pipeline`   — :class:`FlowPipeline`, the
  lookup/buffer/fold/ready stages over that table;
* :mod:`~repro.engine.sinks`      — pluggable outcome subscribers
  (stats, per-nature queues, callbacks);
* :mod:`~repro.engine.engine`     — :class:`StagedEngine`, the thin
  dispatch/classify/fan-out facade over the pipeline, and the
  :class:`~repro.engine.engine.SerialRuntime` that drives it inline.

Build an engine with
:func:`repro.open_engine`; ``EngineConfig(max_batch=1)`` classifies
each flow the instant it is ready, the behaviour the executable spec of
Figure 1 (``tests/spec.py``) specifies, and any larger batch emits the
same labels and counters, later.
"""

from repro.engine.batcher import MicroBatcher
from repro.engine.deadlines import DeadlineWheel
from repro.engine.engine import StagedEngine
from repro.engine.flow_table import FlowTable
from repro.engine.pipeline import FlowPipeline, IngestResult, WindowPolicy
from repro.engine.sinks import CallbackSink, QueueSink, ResultSink, StatsSink
from repro.engine.types import (
    ClassifiedFlow,
    EngineClosedError,
    EngineStats,
    PendingFlow,
)

__all__ = [
    "CallbackSink",
    "ClassifiedFlow",
    "DeadlineWheel",
    "EngineClosedError",
    "EngineStats",
    "FlowPipeline",
    "FlowTable",
    "IngestResult",
    "MicroBatcher",
    "PendingFlow",
    "QueueSink",
    "ResultSink",
    "StagedEngine",
    "StatsSink",
    "WindowPolicy",
]
