"""CART decision trees (Breiman, Friedman, Olshen, Stone; 1984)."""

from repro._lazy import lazy_exports
from repro.ml.tree.cart import DecisionTreeClassifier, TreeNode

# Pruning is a training-side tool.
__getattr__, __dir__ = lazy_exports(globals(), {
    "cost_complexity_path": "repro.ml.tree.pruning",
    "prune_to_accuracy": "repro.ml.tree.pruning",
    "pruned_copy": "repro.ml.tree.pruning",
})

__all__ = [
    "DecisionTreeClassifier",
    "TreeNode",
    "cost_complexity_path",
    "prune_to_accuracy",
    "pruned_copy",
]
