"""Machine-learning substrate, implemented from scratch.

Provides the two classifier families the paper uses — CART decision trees
(Breiman et al. 1984) and soft-margin SVMs trained by SMO with an RBF
kernel (Vapnik 1995; Platt's DAGSVM for multi-class) — plus the metrics and
cross-validation machinery of the evaluation protocol.
"""
