"""Prometheus-style text exposition of a :class:`MetricsRegistry`.

:func:`render_text` produces the classic ``text/plain; version=0.0.4``
format — ``# HELP`` / ``# TYPE`` comments followed by one sample per
line — so the engine's registry can be scraped, diffed in tests, or
dumped from the CLI without any client library. :func:`validate_text`
is the matching checker: it re-parses an exposition and raises on any
malformed line, which CI uses to pin the format.

Histograms expand Prometheus-style into cumulative ``_bucket`` samples
(``le`` upper bounds, ending at ``+Inf``) plus ``_sum`` and ``_count``.
"""

from __future__ import annotations

import math
import re

from repro.obs.metrics import MetricsRegistry, render_labels

__all__ = ["render_text", "validate_text"]


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _sample(name: str, labels: str, value: float) -> str:
    if labels:
        return f"{name}{{{labels}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def render_text(registry: MetricsRegistry) -> str:
    """Render every instrument in ``registry`` as exposition text."""
    lines: list[str] = []
    for name, kind, help_text, instruments in registry.families():
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for instrument in instruments:
            base = render_labels(instrument.labels)
            if kind == "histogram":
                for bound, cumulative in instrument.cumulative_counts():
                    le = f'le="{_format_value(bound)}"'
                    labels = f"{base},{le}" if base else le
                    lines.append(_sample(f"{name}_bucket", labels, cumulative))
                lines.append(_sample(f"{name}_sum", base, instrument.sum))
                lines.append(_sample(f"{name}_count", base, instrument.count))
            else:
                lines.append(_sample(name, base, instrument.value))
    return "\n".join(lines) + "\n" if lines else ""


_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$")
#: ``name="value"``, the value with ``\\``, ``\"`` and ``\n`` escapes.
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    rf"(?:\{{(?P<labels>{_LABEL}(?:,{_LABEL})*)\}})?"
    r" (?P<value>[+-]?(?:Inf|NaN|[0-9.eE+-]+))$"
)


def validate_text(text: str) -> int:
    """Check ``text`` parses as exposition lines; returns the sample count.

    Raises ``ValueError`` naming the first malformed line. Accepts the
    subset :func:`render_text` emits (plus ``summary``/``untyped`` TYPE
    comments, for forward compatibility).
    """
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if _HELP_RE.match(line) or _TYPE_RE.match(line):
                continue
            raise ValueError(f"line {lineno}: malformed comment: {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric value in: {line!r}"
                ) from None
        samples += 1
    return samples
