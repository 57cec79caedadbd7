"""Plain-text rendering of experiment results.

The harnesses print the same rows/series the paper's tables and figures
show; these helpers keep that output aligned and diff-friendly (the bench
suite tees it into EXPERIMENTS.md evidence blocks).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000 or (value != 0 and abs(value) < 0.001):
            return "%.3e" % value
        return "%.4g" % value
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    """Fixed-width ASCII table with a header rule."""
    rendered_rows: List[List[str]] = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)
