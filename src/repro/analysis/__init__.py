"""Information-theoretic analysis utilities.

This subpackage provides the divergence measures (Kullback-Leibler and
Jensen-Shannon) and the empirical-distribution machinery used by the paper's
Hypothesis-2 validation (Figure 3): comparing the byte/k-gram probability
distribution of a file *prefix* against the distribution of the whole file.
"""
