"""Plain-text tables: the one renderer behind the figure harness's tables
and the CLI's operator views (``recover``, ``compact``, ``top``).

It lives outside ``repro.experiments`` so that the serving commands render
their tables without loading the simulator (DESIGN.md §11).
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render a simple aligned text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
