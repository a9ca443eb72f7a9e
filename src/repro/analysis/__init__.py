"""Analysis helpers: statistics, the E-model MOS, and table rendering."""

from .mos import (
    delay_impairment,
    loss_impairment,
    mos_from_network_stats,
    r_factor,
    r_to_mos,
)
from .textplot import bar_chart, sparkline, timeline
from .stats import (
    mean,
    median,
    percentile,
    slowdown_percent,
    stddev,
    timeseries_rates,
)

__all__ = [
    "delay_impairment",
    "loss_impairment",
    "bar_chart",
    "mean",
    "median",
    "mos_from_network_stats",
    "percentile",
    "r_factor",
    "r_to_mos",
    "slowdown_percent",
    "sparkline",
    "stddev",
    "timeline",
    "timeseries_rates",
]
