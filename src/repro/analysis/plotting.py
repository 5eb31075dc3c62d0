"""ASCII plotting for terminal-friendly experiment output.

No matplotlib in the dependency set — loss curves and recovery sweeps
render as Unicode sparklines and simple line plots, which is all the
examples need.
"""

from __future__ import annotations

from typing import List, Sequence

from ..exceptions import ConfigurationError
from .reporting import Series

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """A one-line sparkline: ``sparkline([1,5,2]) → '▁█▃'``."""
    if not values:
        raise ConfigurationError("cannot sparkline an empty sequence")
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def downsample(values: Sequence[float], width: int) -> List[float]:
    """Average-pool ``values`` down to at most ``width`` points."""
    if width <= 0:
        raise ConfigurationError(f"width must be positive, got {width}")
    vals = list(values)
    if len(vals) <= width:
        return vals
    out: List[float] = []
    step = len(vals) / width
    for i in range(width):
        lo = int(i * step)
        hi = max(lo + 1, int((i + 1) * step))
        chunk = vals[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def ascii_plot(
    series: Sequence[Series], width: int = 70, height: int = 12
) -> str:
    """A multi-series ASCII line plot with a y-axis.

    Each series is drawn with its own marker (``*``, ``o``, ``+``, …)
    and listed in a legend below the axes.
    """
    if not series:
        raise ConfigurationError("need at least one series to plot")
    if width <= 0 or height <= 1:
        raise ConfigurationError(
            f"need width > 0 and height > 1, got {width}×{height}"
        )
    markers = "*o+x#@%&"
    sampled = [downsample(list(s.y), width) for s in series]
    all_vals = [v for ys in sampled for v in ys]
    lo, hi = min(all_vals), max(all_vals)
    span = (hi - lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for s_idx, ys in enumerate(sampled):
        marker = markers[s_idx % len(markers)]
        for x, v in enumerate(ys):
            row = int((hi - v) / span * (height - 1))
            grid[row][x] = marker

    lines = []
    for r, row in enumerate(grid):
        level = hi - r / (height - 1) * span
        lines.append(f"{level:>10.4g} |{''.join(row)}")
    lines.append(" " * 11 + "+" + "-" * width)
    legend = "   ".join(
        f"{markers[i % len(markers)]} {s.name}" for i, s in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def loss_curve_panel(
    name_to_losses: dict[str, Sequence[float]], width: int = 60
) -> str:
    """Sparkline panel: one labelled row per loss curve."""
    if not name_to_losses:
        raise ConfigurationError("no curves to draw")
    label_width = max(len(name) for name in name_to_losses)
    lines = []
    for name, losses in name_to_losses.items():
        spark = sparkline(downsample(list(losses), width))
        final = losses[-1] if len(losses) else float("nan")
        lines.append(f"{name.ljust(label_width)}  {spark}  (final {final:.4g})")
    return "\n".join(lines)
