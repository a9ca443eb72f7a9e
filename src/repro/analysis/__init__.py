"""Analysis helpers: statistics, the E-model MOS, and table rendering."""

from repro import lazy_exports

lazy_exports(globals(), {
    ".mos": "delay_impairment loss_impairment mos_from_network_stats"
            " r_factor r_to_mos",
    ".textplot": "sparkline timeline",
    ".stats": "mean median percentile slowdown_percent stddev"
              " timeseries_rates",
})
