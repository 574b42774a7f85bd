"""CART decision trees (Breiman, Friedman, Olshen, Stone; 1984)."""

from repro.ml.tree.cart import DecisionTreeClassifier, TreeNode
from repro.ml.tree.pruning import (
    cost_complexity_path,
    prune_to_accuracy,
    pruned_copy,
)

__all__ = [
    "DecisionTreeClassifier",
    "TreeNode",
    "cost_complexity_path",
    "prune_to_accuracy",
    "pruned_copy",
]
