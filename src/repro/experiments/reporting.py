"""Result containers and plain-text table rendering for experiment runners.

The paper reports its evaluation as figures (metric-vs-compression-ratio
curves, iteration curves, heatmaps) and tables.  Each experiment runner in
this package returns an :class:`ExperimentResult` whose ``rows`` are exactly
the series / table rows the corresponding figure or table plots, so they can
be printed, asserted on in benchmarks, and compared against the paper's
qualitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    """Output of one experiment runner."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)
    #: Columns measured with the wall clock.  They differ from run to run, so
    #: a table written to a tracked file leaves them out
    #: (``to_text(timing=False)``) and quality columns stay diffable.
    timing_columns: tuple[str, ...] = ()

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def filter_rows(self, **criteria: Any) -> list[dict[str, Any]]:
        """Rows matching all of the given column=value criteria."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    def to_text(self, timing: bool = True) -> str:
        """The table and notes; ``timing=False`` drops :attr:`timing_columns`."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            lines.append(format_table(self.rows, exclude=() if timing else self.timing_columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def format_value(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.001 and value != 0):
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def format_table(rows: list[dict[str, Any]], exclude: tuple[str, ...] = ()) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns and key not in exclude:
                columns.append(key)
    rendered = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * w for w in widths)
    body = [" | ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered]
    return "\n".join([header, separator] + body)
