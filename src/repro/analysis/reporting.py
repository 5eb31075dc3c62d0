"""Plain-text tables for experiment output.

``repro experiment`` regenerates the paper's figures as printed
tables; this module owns the formatting so every table looks the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Sequence

from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.summary import SchemeAggregate


@dataclass
class Table:
    """A titled column-aligned table (with an optional footer line)."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    footer: str = ""

    def add_row(self, *values: object) -> None:
        """Append one row; must match the column count."""
        if len(values) != len(self.columns):
            raise ConfigurationError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(values)

    def render(self) -> str:
        """Render the table as column-aligned plain text."""
        def fmt(cell: object) -> str:
            if isinstance(cell, float):
                return f"{cell:.4g}"
            return str(cell)

        header = [str(c) for c in self.columns]
        body = [[fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append(sep)
        for row in body:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.footer:
            lines.append(sep)
            lines.append(self.footer)
        return "\n".join(lines)

    def show(self) -> None:
        """Print the rendered table with surrounding blank lines."""
        print()
        print(self.render())
        print()


def format_cache_stats(snapshot: Mapping[str, float]) -> str:
    """Render a :meth:`DecodeCache.snapshot` mapping as one line."""
    lookups = int(snapshot.get("hits", 0) + snapshot.get("misses", 0))
    return (
        f"decode cache: {int(snapshot.get('hits', 0))} hits / "
        f"{lookups} lookups "
        f"({100 * snapshot.get('hit_rate', 0.0):.1f}% hit rate), "
        f"{int(snapshot.get('size', 0))}/{int(snapshot.get('maxsize', 0))} "
        f"entries, {int(snapshot.get('evictions', 0))} evictions"
    )


def trace_summary_table(
    aggregates: Mapping[str, "SchemeAggregate"],
    title: str = "Round-trace summary",
    cache: object = None,
) -> Table:
    """Tabulate per-scheme aggregates of an exported round trace.

    Input is the mapping produced by
    :func:`repro.obs.summary.aggregate_traces`; undecoded schemes show
    ``-`` in the recovery/search columns.  ``cache`` — either a
    :class:`~repro.parallel.DecodeCache` or its :meth:`snapshot`
    mapping — adds the decode-cache hit rate as the table footer.
    """
    if not aggregates:
        raise ConfigurationError("need at least one scheme aggregate")

    def opt(value: object, fmt: str) -> str:
        return format(value, fmt) if value is not None else "-"

    table = Table(
        title=title,
        columns=[
            "scheme", "rounds", "mean step (s)", "p50 (s)", "p95 (s)",
            "p99 (s)", "mean accepted", "recovery", "mean searches",
            "wasted compute (s)",
        ],
    )
    for agg in aggregates.values():
        table.add_row(
            agg.scheme,
            agg.rounds,
            agg.mean_step_time,
            agg.p50_step_time,
            agg.p95_step_time,
            agg.p99_step_time,
            agg.mean_accepted,
            opt(agg.mean_recovery_fraction, ".1%"),
            opt(agg.mean_num_searches, ".2f"),
            agg.total_wasted_compute,
        )
    if cache is not None:
        snapshot = cache.snapshot() if hasattr(cache, "snapshot") else cache
        table.footer = format_cache_stats(snapshot)
    return table
