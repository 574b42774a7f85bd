"""Information-theoretic analysis utilities.

This subpackage provides the divergence measures (Kullback-Leibler and
Jensen-Shannon) and the empirical-distribution machinery used by the paper's
Hypothesis-2 validation (Figure 3): comparing the byte/k-gram probability
distribution of a file *prefix* against the distribution of the whole file.
"""

from repro.analysis.distributions import (
    EmpiricalCdf,
    kgram_distribution,
    prefix_whole_jsd,
)
from repro.analysis.divergence import (
    jensen_shannon_divergence,
    kl_divergence,
    shannon_entropy,
)
from repro.analysis.visualize import ascii_scatter

__all__ = [
    "EmpiricalCdf",
    "ascii_scatter",
    "jensen_shannon_divergence",
    "kgram_distribution",
    "kl_divergence",
    "prefix_whole_jsd",
    "shannon_entropy",
]
