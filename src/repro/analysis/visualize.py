"""Terminal visualization: an ASCII scatter plot.

The benches reproduce the paper's *figures*; this helper lets
``benchmarks/bench_fig2a_feature_space.py`` render the Figure 2(a)
feature space in a terminal next to the numeric series. Pure text
output, no plotting dependencies.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ascii_scatter"]


def ascii_scatter(
    points: "dict[str, list[tuple[float, float]]]",
    width: int = 60,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render labelled 2-D point clouds as an ASCII grid.

    ``points`` maps a series name to its (x, y) pairs; each series is
    drawn with the first character of its name (collisions show the later
    series). Axes are scaled to the joint data range.
    """
    if width < 10 or height < 5:
        raise ValueError("width must be >= 10 and height >= 5")
    all_points = [p for series in points.values() for p in series]
    if not all_points:
        raise ValueError("no points to plot")
    xs = np.array([p[0] for p in all_points], dtype=np.float64)
    ys = np.array([p[1] for p in all_points], dtype=np.float64)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for name, series in points.items():
        marker = name[0] if name else "?"
        for x, y in series:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = marker

    lines = []
    for row_index, row in enumerate(grid):
        prefix = f"{y_hi:8.3f} |" if row_index == 0 else (
            f"{y_lo:8.3f} |" if row_index == height - 1 else " " * 9 + "|"
        )
        lines.append(prefix + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(
        " " * 10 + f"{x_lo:<10.3f}{x_label:^{max(width - 20, 1)}}{x_hi:>10.3f}"
    )
    legend = "   ".join(f"{name[0]}={name}" for name in points)
    lines.append(f"{y_label} vs {x_label}; legend: {legend}")
    return "\n".join(lines)
