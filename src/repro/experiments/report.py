"""Plain-text table formatting for experiment reports."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float, None]


def format_cell(value: Cell, precision: int = 4) -> str:
    """Render one table cell: floats compactly, None as a dash."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]], title: str = "") -> str:
    """Render an aligned text table with a header rule.

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a  b
    ----
    1  2.5
    """
    rendered_rows: List[List[str]] = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_line(list(headers)))
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rendered_rows:
        lines.append(render_line(row))
    return "\n".join(lines)
