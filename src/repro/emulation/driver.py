"""Table 1 driver: the full application-performance comparison.

Runs every (route x time-of-day) cell with all four applications plus the
calibration columns (MTTHO, ping p50) for both architectures, and renders
the table in the paper's layout, including the final
"Overall Perf. Slowdown" row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.analysis.stats import mean, slowdown_percent
from repro.net import Simulator

from .routes import ARCH_CELLBRICKS, ARCH_MNO, DAY, NIGHT, ROUTE_ORDER
from .scenario import EmulationConfig, PairedEmulation

APP_DURATIONS = {
    "ping": 120.0,
    "iperf": 120.0,
    "voip": 120.0,
    "video": 150.0,
    "web": 120.0,
}


@dataclass
class CellResult:
    """One (route, time-of-day) cell of Table 1, both architectures."""

    route: str
    time_of_day: str
    mttho_s: float = 0.0
    ping_p50_ms: dict = field(default_factory=dict)
    iperf_mbps: dict = field(default_factory=dict)
    voip_mos: dict = field(default_factory=dict)
    video_level: dict = field(default_factory=dict)
    web_load_s: dict = field(default_factory=dict)


@dataclass
class Table1Result:
    """All cells plus the aggregate slowdown row."""

    cells: list = field(default_factory=list)

    def overall_slowdown(self, metric: str, time_of_day: str,
                         lower_is_better: bool = False) -> float:
        """Mean per-cell slowdown (%) across routes for one time of day."""
        values = []
        for cell in self.cells:
            if cell.time_of_day != time_of_day:
                continue
            data = getattr(cell, metric)
            if not data:
                continue
            mno, cb = data[ARCH_MNO], data[ARCH_CELLBRICKS]
            if lower_is_better:
                # e.g. load time: CB being slower means a positive
                # slowdown of (cb - mno) / mno.
                values.append(-slowdown_percent(mno, cb))
            else:
                values.append(slowdown_percent(mno, cb))
        return mean(values)


def run_cell_result(route: str, time_of_day: str, seed: int = 1,
                    duration_scale: float = 1.0,
                    apps: tuple = ("ping", "iperf", "voip", "video", "web")
                    ) -> CellResult:
    """Run all applications for one Table 1 cell.

    Each application gets a fresh paired emulation with the same seed, so
    both architectures and all apps see identical radio and handover
    realizations — mirroring how the paper drives both UEs together.
    """
    cell = CellResult(route=route, time_of_day=time_of_day)

    def fresh(app: str) -> PairedEmulation:
        sim = Simulator()
        config = EmulationConfig(
            route=route, time_of_day=time_of_day,
            duration=APP_DURATIONS[app] * duration_scale, seed=seed)
        return PairedEmulation(sim, config)

    if "ping" in apps:
        emulation = fresh("ping")
        stats = emulation.run_ping()
        cell.ping_p50_ms = {arch: s.p50_ms for arch, s in stats.items()}
        cell.mttho_s = _measured_mttho(emulation)
    if "iperf" in apps:
        emulation = fresh("iperf")
        duration = emulation.config.duration
        stats = emulation.run_iperf()
        cell.iperf_mbps = {arch: s.average_mbps(duration)
                           for arch, s in stats.items()}
        if not cell.mttho_s:
            cell.mttho_s = _measured_mttho(emulation)
    if "voip" in apps:
        stats = fresh("voip").run_voip()
        cell.voip_mos = {arch: s.mos for arch, s in stats.items()}
    if "video" in apps:
        stats = fresh("video").run_video()
        cell.video_level = {arch: s.average_level
                            for arch, s in stats.items()}
    if "web" in apps:
        times = fresh("web").run_web()
        cell.web_load_s = {arch: mean(values)
                           for arch, values in times.items()}
    return cell


def _measured_mttho(emulation: PairedEmulation) -> float:
    events = emulation.handover_events
    if len(events) < 2:
        return emulation.config.conditions().mttho_s
    gaps = [events[i].at - events[i - 1].at for i in range(1, len(events))]
    return mean(gaps)


def run_table1(seed: int = 1, duration_scale: float = 1.0,
               routes: tuple = ROUTE_ORDER) -> Table1Result:
    """The full Table 1 sweep: every route, day then night."""
    result = Table1Result()
    for route in routes:
        for time_of_day in (DAY, NIGHT):
            result.cells.append(run_cell_result(
                route, time_of_day, seed=seed,
                duration_scale=duration_scale))
    return result


def render_table1(result: Table1Result) -> str:
    """Text rendering in the paper's layout (D and N columns per metric)."""
    by_key = {(c.route, c.time_of_day): c for c in result.cells}
    routes = [r for r in ROUTE_ORDER
              if any(c.route == r for c in result.cells)]

    header = (f"{'Route':9s} {'Arch':10s} {'MTTHO':>12s} {'Ping p50':>16s} "
              f"{'iPerf Mbps':>16s} {'VoIP MOS':>14s} {'Video lvl':>14s} "
              f"{'Web s':>14s}")
    lines = [header, "-" * len(header)]

    def pair(cell_d, cell_n, metric, arch, fmt="{:.2f}"):
        def one(cell):
            data = getattr(cell, metric) if cell else None
            if not data or arch not in data:
                return "-"
            return fmt.format(data[arch])
        return f"{one(cell_d):>7s}/{one(cell_n):<7s}"

    for route in routes:
        cell_d = by_key.get((route, DAY))
        cell_n = by_key.get((route, NIGHT))
        mttho = (f"{cell_d.mttho_s if cell_d else 0:6.2f}/"
                 f"{cell_n.mttho_s if cell_n else 0:<6.2f}")
        for arch, label in ((ARCH_MNO, "MNO"), (ARCH_CELLBRICKS, "CellBricks")):
            mttho_cell = mttho if arch == ARCH_CELLBRICKS else f"{'-':>6s}/{'-':<6s}"
            lines.append(
                f"{route:9s} {label:10s} {mttho_cell:>12s} "
                f"{pair(cell_d, cell_n, 'ping_p50_ms', arch):>16s} "
                f"{pair(cell_d, cell_n, 'iperf_mbps', arch):>16s} "
                f"{pair(cell_d, cell_n, 'voip_mos', arch):>14s} "
                f"{pair(cell_d, cell_n, 'video_level', arch):>14s} "
                f"{pair(cell_d, cell_n, 'web_load_s', arch):>14s}")
    slow = result.overall_slowdown
    lines.append("-" * len(header))
    lines.append(
        f"{'Overall Perf. Slowdown (D/N %)':32s} "
        f"iperf {slow('iperf_mbps', DAY):5.2f}/{slow('iperf_mbps', NIGHT):<5.2f}  "
        f"voip {slow('voip_mos', DAY):5.2f}/{slow('voip_mos', NIGHT):<5.2f}  "
        f"video {slow('video_level', DAY):5.2f}/{slow('video_level', NIGHT):<5.2f}  "
        f"web {slow('web_load_s', DAY, lower_is_better=True):5.2f}/"
        f"{slow('web_load_s', NIGHT, lower_is_better=True):<5.2f}")
    return "\n".join(lines)
