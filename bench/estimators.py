"""Estimators the benchmark reports with, sized against measured noise.

Every choice here answers a noise fact recorded in ``bench/README.md``:
single passes spread +-12% while the median of several repeats within a
few percent, and pooled tail percentiles of a paced pass swing tenfold
while the median of per-window percentiles does not.
"""

from __future__ import annotations

import hashlib
import statistics

__all__ = [
    "labels_digest",
    "percentile",
    "relative_gap",
    "summarize",
    "windowed_percentiles",
]


def percentile(ordered: list, q: float) -> float:
    """The ``q`` quantile (0..1) of an ascending list, interpolated."""
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values) -> dict:
    """``{"value": median, "iqr": q3 - q1, "n": count}`` of the samples."""
    values = list(values)
    iqr = 0.0
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"value": statistics.median(values), "iqr": iqr, "n": len(values)}


def relative_gap(values) -> float:
    """Widest gap between the values, as a share of their median."""
    values = list(values)
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if max(values) == min(values) else float("inf")
    return (max(values) - min(values)) / abs(middle)


def windowed_percentiles(
    samples, quantiles, *, window_s: float = 0.5, min_samples: int = 50
) -> dict:
    """Per-window percentiles of ``(time, value)`` samples.

    Samples are grouped into ``window_s`` windows by time; a window with
    fewer than ``min_samples`` samples is dropped. Returns ``{q: [the q
    quantile of each kept window]}``. The caller reports the median over
    windows: one stall lands in one window and moves that median little,
    where it would own the pooled tail.
    """
    windows: dict = {}
    for when, value in samples:
        windows.setdefault(int(when // window_s), []).append(value)
    out: dict = {q: [] for q in quantiles}
    for index in sorted(windows):
        values = windows[index]
        if len(values) < min_samples:
            continue
        values.sort()
        for q in quantiles:
            out[q].append(percentile(values, q))
    return out


def labels_digest(pairs) -> str:
    """SHA-256 over the sorted ``(flow key bytes, label)`` pairs."""
    digest = hashlib.sha256()
    for key_bytes, label in sorted(pairs):
        digest.update(key_bytes)
        digest.update(bytes((label,)))
    return digest.hexdigest()
