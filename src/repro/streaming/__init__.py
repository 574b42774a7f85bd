"""Streaming-algorithm substrate.

Implements the estimation machinery the paper builds on:

* the single-pass stream-entropy estimator of Lall et al. (SIGMETRICS 2006),
* median-of-means sketch reduction.

These are usable standalone on arbitrary element streams; ``repro.core``
specializes them to k-gram streams over flow buffers.
"""
