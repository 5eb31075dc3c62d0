"""ASCII plotting for terminal-friendly experiment output.

No matplotlib in the dependency set — loss curves and recovery sweeps
render as Unicode sparklines, which is all the examples need.
"""

from __future__ import annotations

from typing import List, Sequence

from ..exceptions import ConfigurationError

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
