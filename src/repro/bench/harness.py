"""Small helpers shared by the benchmark scripts under ``benchmarks/``.

Each benchmark regenerates one of the paper's tables or figures; the helpers
here keep the scripts focused on the experiment itself: a column-aligned
result table (printed to stdout and easy to paste into EXPERIMENTS.md) and
the error metrics the accuracy experiments report.  The stopwatch is
:class:`repro.util.timing.timed`.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, List, Sequence


class ExperimentTable:
    """A printable table of experiment results."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: object) -> None:
        """Append one row; values are rendered with :func:`format_value`."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values ({self.columns}), got {len(values)}"
            )
        self.rows.append([format_value(value) for value in values])

    def render(self) -> str:
        """The table as aligned monospace text."""
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for position, cell in enumerate(row):
                widths[position] = max(widths[position], len(cell))
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table (benchmarks call this at the end)."""
        print()
        print(self.render())
        print()


def format_value(value: object) -> str:
    """Render one table cell."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def relative_error(estimated: float, actual: float) -> float:
    """``|estimated - actual| / actual`` with a guard for tiny denominators."""
    if abs(actual) < 1e-12:
        return 0.0 if abs(estimated) < 1e-12 else float("inf")
    return abs(estimated - actual) / abs(actual)


def geometric_mean(values: Iterable[float], strict: bool = False) -> float:
    """Geometric mean of positive values (0 if the input is empty).

    Non-positive inputs have no geometric mean; silently dropping them would
    skew accuracy aggregates without anyone noticing, so dropping is loud:
    with ``strict=True`` a :class:`ValueError` is raised, otherwise a
    :class:`RuntimeWarning` is emitted and the mean of the remaining
    positive values is returned.
    """
    values = list(values)
    positive = [v for v in values if v > 0]
    dropped = len(values) - len(positive)
    if dropped:
        message = (
            f"geometric_mean: ignoring {dropped} non-positive value(s) "
            f"out of {len(values)}; the result covers only the positive inputs"
        )
        if strict:
            raise ValueError(message)
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))

