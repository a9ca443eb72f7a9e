"""Fig 8, Fig 9, and Fig 10 harnesses.

* :func:`run_figure8` — iperf throughput over time around one handover,
  1-second bins, MNO (TCP) vs CellBricks (MPTCP with the default 500 ms
  wait), day-time policing: the dip-then-overshoot timeline.
* :func:`run_figure9` — the attachment-latency factor analysis: modified
  MPTCP (no wait) at d = 32/64/128 ms plus unmodified MPTCP, night-time
  conditions, reported as throughput relative to the paired TCP baseline
  over windows of 1..9 s after each handover.
* :func:`run_figure10` — day vs night 500 s downtown drives: the bimodal
  rate-limiting pattern of Appendix A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import mean, stddev
from repro.net import Simulator

from .routes import ARCH_CELLBRICKS, ARCH_MNO
from .scenario import EmulationConfig, PairedEmulation


@dataclass
class Figure8Result:
    """Per-second throughput series around a single handover."""

    timestamps: list = field(default_factory=list)
    mno_mbps: list = field(default_factory=list)
    cb_mbps: list = field(default_factory=list)
    handover_at: float = 0.0


#: Fig 8's run: 50 s, one handover at 23.4 s, scenario seed 8.
FIG8_DURATION = 50.0
FIG8_HANDOVER_AT = 23.4


def run_figure8() -> Figure8Result:
    """One controlled handover mid-run, day-time conditions (as in the
    paper's Fig 8 trace)."""
    duration, handover_at = FIG8_DURATION, FIG8_HANDOVER_AT
    sim = Simulator()
    config = EmulationConfig(route="downtown", time_of_day="day",
                             duration=duration, seed=8, handovers=False)
    emulation = PairedEmulation(sim, config)
    emulation.handover_events = []  # we schedule our own
    sim.schedule_at(handover_at, emulation._apply_handover, 0.08)

    stats = emulation.run_iperf()
    result = Figure8Result(handover_at=handover_at)
    bins = int(duration)
    mno = stats[ARCH_MNO].rates_mbps(1.0, duration)
    cb = stats[ARCH_CELLBRICKS].rates_mbps(1.0, duration)
    result.timestamps = [float(i + 1) for i in range(bins)]
    result.mno_mbps = mno[:bins]
    result.cb_mbps = cb[:bins]
    return result


@dataclass
class Figure9Result:
    """Relative performance vs elapsed time since handover."""

    windows: list = field(default_factory=list)      # 1..9 s
    #: variant name -> [relative perf % per window]
    series: dict = field(default_factory=dict)


FIG9_VARIANTS = (
    ("mod. 32ms", 0.032, 0.0),
    ("mod. 64ms", 0.064, 0.0),
    ("mod. 128ms", 0.128, 0.0),
    ("unmod.", 0.032, 0.5),
    # Beyond the paper: make-before-break — the UE pre-authorizes with
    # the target bTelco *before* leaving (the paper defers soft handovers
    # to future work), so the attachment latency vanishes at switch time.
    ("mbb (pre-auth)", 0.0005, 0.0),
)


HANDOVER_PERIOD = 20.0  # controlled schedule: a handover every 20 s
FIG9_WINDOWS = tuple(range(1, 10))  # seconds after each handover


def run_figure9(duration: float = 240.0) -> Figure9Result:
    """Night-time factor analysis of the attachment latency d.

    The handover schedule here is *controlled* (one every 20 s) rather
    than stochastic: this is the paper's factor analysis, isolating d and
    the wait period from handover-timing noise.  For each variant we
    average MPTCP's throughput over the n-second window after every
    handover, normalized by the paired TCP baseline over the same windows
    ("relative perf").
    """
    windows = FIG9_WINDOWS
    result = Figure9Result(windows=list(windows))
    handover_times = [t for t in _frange(15.0, duration - max(windows) - 1,
                                         HANDOVER_PERIOD)]
    for name, attach_latency, wait in FIG9_VARIANTS:
        sim = Simulator()
        config = EmulationConfig(route="downtown", time_of_day="night",
                                 duration=duration, seed=9,
                                 attach_latency_s=attach_latency,
                                 address_wait_s=wait, handovers=False)
        emulation = PairedEmulation(sim, config)
        for at in handover_times:
            sim.schedule_at(at, emulation._apply_handover, 0.08)
        stats = emulation.run_iperf()
        series = []
        for window in windows:
            ratios = []
            for at in handover_times:
                mno = stats[ARCH_MNO].window_mbps(at, at + window)
                cb = stats[ARCH_CELLBRICKS].window_mbps(at, at + window)
                if mno > 0:
                    ratios.append(cb / mno * 100.0)
            series.append(mean(ratios) if ratios else float("nan"))
        result.series[name] = series
    return result


def _frange(start: float, stop: float, step: float):
    value = start
    while value <= stop:
        yield value
        value += step


@dataclass
class Figure10Result:
    """Day vs night 500 s downtown throughput traces."""

    day_mbps: list = field(default_factory=list)
    night_mbps: list = field(default_factory=list)

    @property
    def day_avg(self) -> float:
        return mean(self.day_mbps)

    @property
    def night_avg(self) -> float:
        return mean(self.night_mbps)

    @property
    def day_std(self) -> float:
        return stddev(self.day_mbps)

    @property
    def night_std(self) -> float:
        return stddev(self.night_mbps)

    @property
    def day_peak(self) -> float:
        return max(self.day_mbps) if self.day_mbps else 0.0

    @property
    def night_peak(self) -> float:
        return max(self.night_mbps) if self.night_mbps else 0.0


def run_figure10(duration: float = 500.0) -> Figure10Result:
    """Two downtown drives, day and night, MNO baseline (as Appendix A
    measures today's network)."""
    result = Figure10Result()
    for time_of_day, target in (("day", "day_mbps"), ("night", "night_mbps")):
        sim = Simulator()
        config = EmulationConfig(route="downtown", time_of_day=time_of_day,
                                 duration=duration, seed=10)
        emulation = PairedEmulation(sim, config)
        stats = emulation.run_iperf()
        series = stats[ARCH_MNO].rates_mbps(1.0, duration)
        setattr(result, target, series)
    return result


def run_figure10_single_drive(duration: float = 400.0,
                              switch_at: float = 200.0) -> Figure10Result:
    """Appendix A's observation, live: one drive that *crosses* the
    carrier's midnight policy switch ("the throughput enters the
    high-mode consistently at around 12:30am").

    The run starts shortly before the switch; the policy scheduler flips
    the policer mid-drive, so one trace shows both modes.  Returned with
    the pre-switch seconds in ``day_mbps`` and post-switch in
    ``night_mbps`` so the summary statistics stay comparable.
    """
    from .policy import PolicyScheduler, TimeOfDayPolicy

    sim = Simulator()
    config = EmulationConfig(route="downtown", time_of_day="night",
                             duration=duration, seed=10)
    emulation = PairedEmulation(sim, config)
    policy = TimeOfDayPolicy(day_rate_bps=1.2e6, night_rate_bps=None)
    # Start the clock so 00:30 lands exactly ``switch_at`` seconds in.
    offset_hours = (0.5 - switch_at / 3600.0) % 24.0
    scheduler = PolicyScheduler(sim, policy,
                                [emulation.mno, emulation.cb],
                                clock_offset_hours=offset_hours)
    scheduler.start(duration)
    stats = emulation.run_iperf()
    series = stats[ARCH_MNO].rates_mbps(1.0, duration)
    result = Figure10Result()
    result.day_mbps = series[:int(switch_at)]
    result.night_mbps = series[int(switch_at):]
    return result
