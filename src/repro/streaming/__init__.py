"""Streaming-algorithm substrate.

Implements the estimation machinery the paper builds on:

* the single-pass stream-entropy estimator of Lall et al. (SIGMETRICS 2006),
* median-of-means sketch reduction.

These are usable standalone on arbitrary element streams; ``repro.core``
specializes them to k-gram streams over flow buffers.
"""

from repro.streaming.entropy_stream import (
    StreamEntropyEstimator,
    estimate_s_from_stream,
    estimate_stream_entropy,
)
from repro.streaming.sketch import median_of_means

__all__ = [
    "StreamEntropyEstimator",
    "estimate_s_from_stream",
    "estimate_stream_entropy",
    "median_of_means",
]
