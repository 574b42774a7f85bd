"""Telemetry for the staged engine: metrics primitives + text exposition.

``repro.obs`` is a dependency-free monitoring plane (stdlib only; of
the rest of ``repro`` it imports only the first-use export helper): a :class:`MetricsRegistry` of
:class:`Counter` / :class:`Gauge` / fixed-bucket :class:`Histogram`
instruments with :class:`Timer` context managers, and a Prometheus-style
text exposition (:func:`render_text`, checked by :func:`validate_text`).

The staged engine instruments every stage with it by default — packet
ingest, deadline-wheel expirations, micro-batch drains, per-batch
classify latency, per-flow classification delay (the paper's Section 5
metric), and CDB occupancy / per-flow state bytes (the ~200 B claim).
A count the code already keeps reaches its counter or gauge as a
*reader*, called when the instrument is read; events are pushed once
per drain. Snapshots come two ways: ``registry.snapshot()`` (plain
dict) and ``render_text(registry)`` (scrape format).
"""

from repro._lazy import lazy_exports
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)

# The text exposition runs at scrape time, not in the classify pass.
__getattr__, __dir__ = lazy_exports(globals(), {
    "render_text": "repro.obs.exposition",
    "validate_text": "repro.obs.exposition",
})

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "render_text",
    "validate_text",
]
