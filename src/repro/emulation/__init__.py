"""§6.2 emulation harness: drive routes, handovers, paired MNO/CellBricks
runs, and the Table 1 / Fig 8-10 drivers."""

from .chaos import (
    ChaosEvent,
    ChaosMonkey,
    ChaosReport,
    ChaosSchedule,
    brownout,
    loss_burst,
    outage,
    partition,
    run_chaos,
)
from .driver import (
    CellResult,
    Table1Result,
    render_table1,
    run_cell_result,
    run_table1,
)
from .figures import (
    Figure8Result,
    Figure9Result,
    Figure10Result,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure10_single_drive,
)
from .geo import GeoPairedEmulation
from .policy import PolicyScheduler, TimeOfDayPolicy
from .radio import CapacityProcess, HandoverEvent, generate_handover_schedule
from .routes import DAY, NIGHT, ROUTE_ORDER, ROUTES, Route, RouteConditions
from .scenario import (
    ARCH_CELLBRICKS,
    ARCH_MNO,
    DEFAULT_ATTACH_LATENCY,
    EmulationConfig,
    PairedEmulation,
)

__all__ = [
    "ARCH_CELLBRICKS",
    "ARCH_MNO",
    "CapacityProcess",
    "CellResult",
    "ChaosEvent",
    "ChaosMonkey",
    "ChaosReport",
    "ChaosSchedule",
    "brownout",
    "loss_burst",
    "outage",
    "partition",
    "run_chaos",
    "DAY",
    "DEFAULT_ATTACH_LATENCY",
    "EmulationConfig",
    "Figure8Result",
    "Figure9Result",
    "Figure10Result",
    "GeoPairedEmulation",
    "PolicyScheduler",
    "TimeOfDayPolicy",
    "HandoverEvent",
    "NIGHT",
    "PairedEmulation",
    "ROUTES",
    "ROUTE_ORDER",
    "Route",
    "RouteConditions",
    "Table1Result",
    "generate_handover_schedule",
    "render_table1",
    "run_cell_result",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_figure10_single_drive",
    "run_table1",
]
