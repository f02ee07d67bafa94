"""Reporting helpers shared by the experiment harnesses.

The paper summarises each table with geometric means and "average
geometric mean improvement" rows; these helpers compute the same
aggregates and render plain-text tables.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["geometric_mean", "improvement", "format_table"]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values; zeros are clamped to a tiny epsilon."""
    cleaned = [max(float(v), 1e-12) for v in values]
    if not cleaned:
        return 0.0
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))


def improvement(old: float, new: float) -> float:
    """Ratio ``new / old`` (the paper's "Imp." rows, new over old)."""
    if old <= 0:
        return 0.0
    return new / old


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None) -> str:
    """Render a fixed-width plain-text table."""
    columns = len(headers)
    normalised_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in normalised_rows:
        for index in range(min(columns, len(row))):
            widths[index] = max(widths[index], len(row[index]))
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in normalised_rows:
        padded = row + [""] * (columns - len(row))
        lines.append(" | ".join(value.ljust(w) for value, w in zip(padded, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)

