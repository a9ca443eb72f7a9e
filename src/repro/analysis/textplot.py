"""Terminal-friendly plots for the CLI: bar series and sparklines.

The paper's figures are line/bar charts; the CLI renders the same data as
monospace plots so experiments are inspectable without a plotting stack.
"""

from __future__ import annotations

from typing import Optional, Sequence

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], maximum: Optional[float] = None) -> str:
    """A one-line intensity strip of the series."""
    if not values:
        return ""
    top = maximum if maximum is not None else max(values)
    if top <= 0:
        return " " * len(values)
    out = []
    for value in values:
        level = int(min(max(value, 0.0), top) / top
                    * (len(_SPARK_LEVELS) - 1) + 0.5)
        out.append(_SPARK_LEVELS[level])
    return "".join(out)


def bar_chart(series: dict, width: int = 48, unit: str = "") -> str:
    """Horizontal bars, one per (label -> value) entry."""
    if not series:
        return ""
    top = max(series.values())
    label_width = max(len(label) for label in series)
    lines = []
    for label, value in series.items():
        filled = int(width * value / top + 0.5) if top > 0 else 0
        lines.append(f"{label:<{label_width}s} |{'#' * filled:<{width}s}| "
                     f"{value:.2f}{unit}")
    return "\n".join(lines)


def timeline(values: Sequence[float], height: int = 8,
             width: Optional[int] = None,
             markers: Sequence[int] = ()) -> str:
    """A small column chart of a time series, with event markers.

    ``markers`` are bin indices annotated with ``v`` above the chart
    (handover events in the Fig 8 rendering).
    """
    if not values:
        return ""
    if width is not None and len(values) > width:
        # Downsample by averaging consecutive bins.
        factor = (len(values) + width - 1) // width
        values = [sum(values[i:i + factor]) / len(values[i:i + factor])
                  for i in range(0, len(values), factor)]
        markers = [m // factor for m in markers]
    top = max(values) or 1.0
    rows = []
    marker_row = [" "] * len(values)
    for index in markers:
        if 0 <= index < len(values):
            marker_row[index] = "v"
    rows.append("".join(marker_row))
    for level in range(height, 0, -1):
        threshold = top * (level - 0.5) / height
        rows.append("".join("#" if value >= threshold else " "
                            for value in values))
    rows.append("-" * len(values))
    rows.append(f"0..{len(values)}s  (peak {top:.2f})")
    return "\n".join(rows)
