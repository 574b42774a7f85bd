"""Dependency-free metrics primitives for the staged engine.

The paper's operational claims — classification delay around 10% of the
mean packet inter-arrival time (Section 5) and ~200 B of per-flow state
(Table 3) — are only credible when the *running* engine measures them.
This module is the measurement substrate: a :class:`MetricsRegistry`
holding :class:`Counter`, :class:`Gauge`, and fixed-bucket
:class:`Histogram` instruments, plus a :class:`Timer` context manager
for wall-clock sections.

Design constraints, in priority order:

1. **Hot-path cheap** — ``Counter.inc`` is one float add; instruments
   are resolved once at bind time (never per packet), so the fill path
   pays an attribute load and an add per event.
2. **Dependency-free** — stdlib only; importable from anywhere in the
   tree without cycles (``repro.obs`` imports nothing from ``repro``).
3. **Exposition-ready** — instruments carry Prometheus-style names,
   help strings, and label sets, so
   :func:`repro.obs.exposition.render_text` can scrape the registry
   without extra bookkeeping.

Instruments are get-or-create: asking the registry twice for the same
``(name, labels)`` returns the same object, so independent components
(engine stages, sources, user code) can share one registry safely.

Two rules decide how a number reaches an instrument:

* **Kept counts are read.** A counter or gauge that mirrors a count the
  code already keeps (packets seen, CDB occupancy, restarts) is given
  *readers* — zero-arg callables — and its :attr:`Counter.value` is the
  sum of what they return at the moment it is read. Nothing is copied
  on the hot path, a scrape mid-pass is exact, and a second component
  registering on the same ``(name, labels)`` adds its reader to the
  sum, so engines sharing a registry aggregate.
* **Events are pushed.** Histograms, timers and event counters (drains,
  deadline expirations) are observed or incremented where the event
  happens — once per drain or flush, never per packet.
"""

from __future__ import annotations

import bisect
import math
import re
import time

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
]

#: Default histogram buckets for wall-clock latencies, in seconds.
#: Spans sub-millisecond batch classifies up to multi-second buffering
#: delays (the paper's buffer_timeout default is 10 s).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")


def _label_items(labels: dict) -> tuple[tuple[str, str], ...]:
    """Normalized (sorted, stringified) label pairs."""
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


def _escape(value: str) -> str:
    """A label value with backslash, double quote and newline escaped
    (text format 0.0.4)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_labels(labels: "tuple[tuple[str, str], ...]") -> str:
    """``key="value"`` pairs joined by commas (empty string when unlabeled)."""
    return ",".join(f'{key}="{_escape(value)}"' for key, value in labels)


class Timer:
    """Context manager that reports elapsed wall-clock seconds.

    ``observe`` is called with the elapsed time on exit (even when the
    body raised, so failed sections still count); the measurement is
    also kept on ``self.elapsed`` for callers that want the number.
    """

    __slots__ = ("_observe", "_start", "elapsed")

    def __init__(self, observe) -> None:
        self._observe = observe
        self.elapsed: "float | None" = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._start
        self._observe(self.elapsed)
        return False


class _Scalar:
    """A pushed value plus the sum of its readers (see the module rules)."""

    __slots__ = ("name", "labels", "_value", "readers")

    def __init__(self, name: str, labels: "tuple[tuple[str, str], ...]" = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        #: Zero-arg callables whose results are added to the pushed value.
        self.readers: list = []

    @property
    def value(self) -> float:
        return self._value + sum(reader() for reader in self.readers)


class Counter(_Scalar):
    """Monotonically increasing count (events, packets, bytes)."""

    __slots__ = ()

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount


class Gauge(_Scalar):
    """A value that can go up and down (occupancy, depth, sizes).

    It mirrors a size the code keeps, so it is read, never pushed: its
    value is the sum of its readers.
    """

    __slots__ = ()

    kind = "gauge"


class Histogram:
    """Fixed-bucket distribution (delays, batch sizes, state bytes).

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the overflow. Bounds are inclusive
    (Prometheus ``le`` semantics): an observation equal to a bound lands
    in that bound's bucket.
    """

    __slots__ = ("name", "labels", "_bounds", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
        labels: "tuple[tuple[str, str], ...]" = (),
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"histogram {name} buckets must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.name = name
        self.labels = labels
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0

    @property
    def bounds(self) -> "tuple[float, ...]":
        return self._bounds

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (NaN before the first observe)."""
        return self._sum / self._count if self._count else float("nan")

    def observe(self, value: float) -> None:
        self._counts[bisect.bisect_left(self._bounds, value)] += 1
        self._sum += value
        self._count += 1

    def observe_many(self, values) -> None:
        """Observe every value of an iterable (or array) in one call.

        Equivalent to looping :meth:`observe`, but callers producing a
        whole batch of observations (e.g. per-flow state bytes of a
        classify drain) pay one method call instead of one per value.
        An array is unboxed with one ``tolist()``, so ``sum`` stays a
        plain ``float`` and no numpy scalar is made per value.
        """
        tolist = getattr(values, "tolist", None)
        if tolist is not None:
            values = tolist()
        bounds = self._bounds
        counts = self._counts
        bisect_left = bisect.bisect_left
        total = 0.0
        n = 0
        for value in values:
            counts[bisect_left(bounds, value)] += 1
            total += value
            n += 1
        self._sum += total
        self._count += n

    def time(self) -> Timer:
        """A :class:`Timer` observing elapsed seconds into this histogram."""
        return Timer(self.observe)

    def cumulative_counts(self) -> "list[tuple[float, int]]":
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        out = []
        running = 0
        for bound, n in zip(self._bounds, self._counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self._counts[-1]))
        return out

    def snapshot(self) -> dict:
        """count / sum / mean plus cumulative bucket counts."""
        buckets = {
            ("+Inf" if math.isinf(bound) else repr(bound)): n
            for bound, n in self.cumulative_counts()
        }
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "buckets": buckets,
        }


class _Family:
    """All instruments sharing one metric name (one per label set)."""

    __slots__ = ("name", "kind", "help", "buckets", "instruments")

    def __init__(self, name, kind, help_text, buckets=None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.instruments: dict = {}


class MetricsRegistry:
    """Registry of named instruments; the scrape/snapshot surface.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call fixes the metric's kind (and, for histograms, its buckets), and
    later calls with the same name must agree or raise ``ValueError``.
    Label values are passed as keyword arguments::

        registry.counter("batcher_drains_total", reason="size").inc()

    A count the caller already keeps is registered as a reader instead
    of being copied in; every call with a ``reader`` adds one::

        registry.gauge("cdb_flows", reader=table.__len__)
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def __len__(self) -> int:
        """Number of instruments registered."""
        return sum(len(f.instruments) for f in self._families.values())

    def counter(
        self, name: str, help: str = "", *, reader=None, **labels
    ) -> Counter:
        """Get or create a counter, adding ``reader`` to its readers."""
        return self._instrument(Counter, name, help, None, labels, reader)

    def gauge(self, name: str, help: str = "", *, reader=None, **labels) -> Gauge:
        """Get or create a gauge, adding ``reader`` to its readers."""
        return self._instrument(Gauge, name, help, None, labels, reader)

    def histogram(
        self,
        name: str,
        buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        **labels,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._instrument(Histogram, name, help, tuple(buckets), labels)

    def _instrument(self, cls, name, help_text, buckets, labels, reader=None):
        _check_name(name)
        family = self._families.get(name)
        if family is None:
            family = _Family(name, cls.kind, help_text, buckets)
            self._families[name] = family
        elif family.kind != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"not a {cls.kind}"
            )
        elif buckets is not None and family.buckets != buckets:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{family.buckets}, not {buckets}"
            )
        key = _label_items(labels)
        instrument = family.instruments.get(key)
        if instrument is None:
            if cls is Histogram:
                instrument = Histogram(name, family.buckets, key)
            else:
                instrument = cls(name, key)
            family.instruments[key] = instrument
        if reader is not None:
            instrument.readers.append(reader)
        return instrument

    def families(self):
        """``(name, kind, help, [instruments])`` in name order, for scrapes."""
        for name in sorted(self._families):
            family = self._families[name]
            instruments = [
                family.instruments[key] for key in sorted(family.instruments)
            ]
            yield name, family.kind, family.help, instruments

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument.

        Unlabeled counters/gauges map to their value, unlabeled
        histograms to their :meth:`Histogram.snapshot` dict; labeled
        families map to ``{rendered-labels: value-or-dict}``.
        """
        out: dict = {}
        for name, kind, _help, instruments in self.families():
            def value_of(inst):
                return inst.snapshot() if kind == "histogram" else inst.value

            if len(instruments) == 1 and not instruments[0].labels:
                out[name] = value_of(instruments[0])
            else:
                out[name] = {
                    render_labels(inst.labels): value_of(inst)
                    for inst in instruments
                }
        return out
