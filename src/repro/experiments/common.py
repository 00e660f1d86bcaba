"""Shared helpers for the evaluation-reproduction experiments.

Each ``repro.experiments.*`` module reproduces one table or figure from
the paper's evaluation and returns a structured result that can print
the same rows/series the paper reports.  Experiments accept a ``quick``
flag: the default parameters match the paper's setup shape; ``quick``
shrinks measurement windows for CI-speed runs without changing the
structure (documented per experiment in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.clock import DEFAULT_CLOCK

CLOCK = DEFAULT_CLOCK


def cycles_to_us(cycles: float) -> float:
    """Target cycles to microseconds at the evaluation's 3.2 GHz clock."""
    return cycles / CLOCK.freq_hz * 1e6


def us_to_cycles(us: float) -> int:
    """Microseconds to target cycles at 3.2 GHz."""
    return CLOCK.cycles(us * 1e-6)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (what mutilate reports)."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} out of (0, 100]")
    ordered = sorted(samples)
    rank = max(1, round(p / 100 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class Table:
    """A printable result table (the bench harness prints these)."""

    title: str
    columns: List[str]
    rows: List[Tuple] = field(default_factory=list)
    #: Free-text lines printed under the rows.
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def __str__(self) -> str:
        widths = [len(c) for c in self.columns]
        rendered_rows = []
        for row in self.rows:
            rendered = [
                f"{v:.2f}" if isinstance(v, float) else str(v) for v in row
            ]
            widths = [max(w, len(r)) for w, r in zip(widths, rendered)]
            rendered_rows.append(rendered)
        lines = [self.title]
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for rendered in rendered_rows:
            lines.append(
                " | ".join(r.ljust(w) for r, w in zip(rendered, widths))
            )
        lines.extend(self.notes)
        return "\n".join(lines)
