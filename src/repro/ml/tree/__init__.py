"""CART decision trees (Breiman, Friedman, Olshen, Stone; 1984)."""
