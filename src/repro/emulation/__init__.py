"""§6.2 emulation harness: drive routes, handovers, paired MNO/CellBricks
runs, and the Table 1 / Fig 8-10 drivers."""

from repro import lazy_exports

lazy_exports(globals(), {
    ".chaos": "ChaosEvent ChaosMonkey ChaosReport ChaosSchedule brownout"
              " loss_burst outage partition run_chaos",
    ".driver": "CellResult Table1Result render_table1 run_cell_result"
               " run_table1",
    ".figures": "Figure8Result Figure9Result Figure10Result run_figure8"
                " run_figure9 run_figure10 run_figure10_single_drive",
    ".geo": "GeoPairedEmulation",
    ".policy": "PolicyScheduler TimeOfDayPolicy",
    ".radio": "CapacityProcess HandoverEvent generate_handover_schedule",
    ".routes": "ARCH_CELLBRICKS ARCH_MNO DAY NIGHT ROUTE_ORDER ROUTES Route"
               " RouteConditions",
    ".scenario": "DEFAULT_ATTACH_LATENCY EmulationConfig PairedEmulation",
})
