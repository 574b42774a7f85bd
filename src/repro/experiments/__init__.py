"""Experiment harness shared by the benchmark suite.

``datasets`` builds the standard seeded corpora/traces and caches extracted
feature matrices (entropy-vector extraction dominates experiment runtime);
``harness`` runs the paper's cross-validation protocol; ``reporting``
formats results in the layout of the paper's tables and figure series.
"""
