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
* :mod:`~repro.engine.sinks`      — pluggable outcome subscribers
  (stats, per-nature queues, callbacks);
* :mod:`~repro.engine.engine`     — ``StagedEngine``, which runs
  the lookup/buffer/ready, classify and fan-out stages over that table
  inline, in arrival order.

Build an engine with
:func:`repro.open_engine`; ``EngineConfig(max_batch=1)`` classifies
each flow the instant it is ready, the behaviour the executable spec of
Figure 1 (``tests/spec.py``) specifies, and any larger batch emits the
same labels and counters, later.
"""
