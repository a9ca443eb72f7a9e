"""Terminal-friendly plots for the CLI: sparklines and timelines.

The paper's figures are line/bar charts; the CLI renders the same data as
monospace plots so experiments are inspectable without a plotting stack.
"""

from __future__ import annotations

from typing import Optional, Sequence

_SPARK_LEVELS = " .:-=+*#%@"
#: rows of a :func:`timeline` column chart.
TIMELINE_HEIGHT = 8


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


def timeline(values: Sequence[float], markers: Sequence[int] = ()) -> str:
    """A small column chart of a time series, with event markers.

    ``markers`` are bin indices annotated with ``v`` above the chart
    (handover events in the Fig 8 rendering).
    """
    if not values:
        return ""
    top = max(values) or 1.0
    rows = []
    marker_row = [" "] * len(values)
    for index in markers:
        if 0 <= index < len(values):
            marker_row[index] = "v"
    rows.append("".join(marker_row))
    for level in range(TIMELINE_HEIGHT, 0, -1):
        threshold = top * (level - 0.5) / TIMELINE_HEIGHT
        rows.append("".join("#" if value >= threshold else " "
                            for value in values))
    rows.append("-" * len(values))
    rows.append(f"0..{len(values)}s  (peak {top:.2f})")
    return "\n".join(rows)
