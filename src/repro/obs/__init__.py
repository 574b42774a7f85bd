"""Telemetry for the staged engine: metrics primitives + text exposition.

``repro.obs`` is a dependency-free monitoring plane (stdlib only,
nothing else of ``repro``): :mod:`repro.obs.metrics` holds a
``MetricsRegistry`` of ``Counter`` / ``Gauge`` / fixed-bucket
``Histogram`` instruments with ``Timer`` context managers, and
:mod:`repro.obs.exposition` a Prometheus-style text exposition
(``render_text``, checked by ``validate_text``).

The staged engine instruments every stage with it by default — packet
ingest, deadline-wheel expirations, micro-batch drains, per-batch
classify latency, per-flow classification delay (the paper's Section 5
metric), and CDB occupancy / per-flow state bytes (the ~200 B claim).
A count the code already keeps reaches its counter or gauge as a
*reader*, called when the instrument is read; events are pushed once
per drain. Snapshots come two ways: ``registry.snapshot()`` (plain
dict) and ``render_text(registry)`` (scrape format).
"""
