"""Plain-text table rendering for benchmark reports.

The benchmarks print the same artefacts the paper's figures show; this
module renders them as aligned monospace tables (and Markdown for
EVAL_REPORT.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class Table:
    """A simple column-aligned table builder."""

    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    title: str = ""

    def add(self, *values: Any) -> "Table":
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, expected {len(self.headers)}"
            )
        self.rows.append(values)
        return self

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def render_markdown(self) -> str:
        header = "| " + " | ".join(str(h) for h in self.headers) + " |"
        divider = "|" + "|".join("---" for _ in self.headers) + "|"
        lines = [header, divider]
        lines.extend(
            "| " + " | ".join(_cell(value) for value in row) + " |"
            for row in self.rows
        )
        body = "\n".join(lines)
        return f"**{self.title}**\n\n{body}" if self.title else body


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Render an aligned monospace table."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rendered_rows
    )
    return "\n".join(lines)
