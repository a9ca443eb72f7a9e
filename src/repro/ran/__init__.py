"""Geometric RAN model: cells, propagation, UE-driven cell selection.

An alternative to :mod:`repro.emulation`'s calibrated stochastic
processes: handover events and capacity traces *emerge* from geometry —
cell positions, path loss, shadowing, vehicle speed — and the UE's A3
selection logic (§4.2's "UE-driven, network-assisted handover").
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".cells": "Cell Deployment corridor_deployment",
    ".geometry": "Point Trajectory Waypoint straight_drive",
    ".propagation": "ShadowingField capacity_bps path_loss_db rsrp_dbm"
                    " snr_db",
    ".selection": "CellSelector DriveLog HandoverRecord simulate_drive",
})
