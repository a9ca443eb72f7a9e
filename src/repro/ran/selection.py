"""UE-driven cell selection and handover decisions (§4.2).

Implements the standard A3-style trigger the paper's "UE-driven,
network-assisted handover" builds on: the UE samples RSRP periodically,
and switches when a candidate cell is better than the serving cell by a
hysteresis margin for a time-to-trigger window.  Candidates can be
restricted to the network-provided neighbor list ("smarter cell selection
based on the list of neighbor cells learned from the network").

:class:`CellSelector` is also the one RSRP sampling kernel: it draws the
normals behind a UE's shadow fields in Box-Muller pairs, one column per
tick, and is held equal to the scalar :class:`ShadowingField`.

:func:`simulate_drive` walks a trajectory through a deployment and
returns the full handover log — which cells served the UE, when each
switch happened, whether it crossed an operator boundary, and the
capacity trace — ready to feed the emulation harness in place of the
stochastic processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import cos, exp, hypot, log, log10, pi, sin, sqrt
from typing import Optional

from .cells import Cell, Deployment
from .geometry import Trajectory
from .propagation import (
    DEFAULT_REFERENCE_LOSS_DB,
    DEFAULT_SHADOW_CORRELATION_M,
    capacity_bps,
)

DEFAULT_HYSTERESIS_DB = 3.0
DEFAULT_TIME_TO_TRIGGER_S = 0.64   # a standard LTE TTT value
DEFAULT_SAMPLE_INTERVAL_S = 0.2
TWOPI = 2.0 * pi                   # as in stdlib ``random``


@dataclass(frozen=True)
class HandoverRecord:
    at: float
    from_pci: Optional[int]
    to_pci: int
    from_operator: Optional[str]
    to_operator: str

    @property
    def crosses_operator(self) -> bool:
        return (self.from_operator is not None
                and self.from_operator != self.to_operator)


@dataclass
class DriveLog:
    """Everything a simulated drive produced."""

    handovers: list = field(default_factory=list)
    #: (t, serving_pci, rsrp_dbm, capacity_bps) per sample
    samples: list = field(default_factory=list)
    duration: float = 0.0

    @property
    def handover_count(self) -> int:
        return len(self.handovers)

    @property
    def operator_switches(self) -> int:
        return sum(1 for h in self.handovers if h.crosses_operator)

    @property
    def mttho(self) -> float:
        """Mean time between handovers (the paper's MTTHO).

        A drive with zero handovers has no inter-handover time at all:
        returns ``inf`` so fleet aggregates can filter it rather than
        silently averaging in the drive duration.  With exactly one
        handover the true MTTHO is unobservable; ``duration`` is
        returned as a *lower bound* (at most one handover happened in
        the whole drive, so the mean gap is at least this long).
        """
        if not self.handovers:
            return float("inf")
        if len(self.handovers) == 1:
            return self.duration
        gaps = [self.handovers[i].at - self.handovers[i - 1].at
                for i in range(1, len(self.handovers))]
        return sum(gaps) / len(gaps)

    def capacity_trace(self, interval: float = 1.0) -> list:
        """Per-``interval`` serving-cell capacity (for the emulation)."""
        if not self.samples:
            return []
        trace = []
        bucket = []
        next_edge = interval
        for t, _, _, capacity in self.samples:
            while t >= next_edge:
                trace.append(sum(bucket) / len(bucket) if bucket else 0.0)
                bucket = []
                next_edge += interval
            bucket.append(capacity)
        if bucket:
            trace.append(sum(bucket) / len(bucket))
        return trace


class CellSelector:
    """The UE's measurement + A3 decision state machine.

    Measurement lives here, not on the cells: a selector owns its UE's
    shadowing realisation (one correlated field per cell, seeded
    ``seed ^ cell.identity_salt() ^ ue_id``) and the position it was
    last sampled at, so a new selector is a new drive whatever the
    deployment was used for before.  All of its fields advance on the
    same ticks, so the normals that move them are made a column at a
    time: a pair per cell on one tick, the spare halves on the next.
    :meth:`step` is the per-tick entry; it samples every cell through
    :meth:`measure_rsrp` exactly once.
    """

    def __init__(self, deployment: Deployment,
                 hysteresis_db: float = DEFAULT_HYSTERESIS_DB,
                 time_to_trigger_s: float = DEFAULT_TIME_TO_TRIGGER_S,
                 use_neighbor_list: bool = False,
                 ue_id: int = 0, seed: int = 0):
        self.deployment = deployment
        self.hysteresis_db = hysteresis_db
        self.time_to_trigger_s = time_to_trigger_s
        self.use_neighbor_list = use_neighbor_list
        self.ue_id = ue_id
        self.seed = seed
        self.serving: Optional[Cell] = None
        self._candidate_pci: Optional[int] = None
        self._candidate_since: Optional[float] = None
        # Sampling kernel state.  Per cell, in deployment order: a
        # (cell, x, y, 10*exponent, sigma) row, its generator's
        # ``random`` and the current shadow.  Per UE: the position last
        # sampled at and the unused half of the last Box-Muller pairs.
        self._plan = [
            (cell, cell.position.x, cell.position.y,
             10.0 * cell.path_loss_exponent, cell.shadowing_sigma_db)
            for cell in deployment.cells]
        self._randoms = [
            random.Random(seed ^ cell.identity_salt() ^ ue_id).random
            for cell in deployment.cells]
        self._shadows = [0.0] * len(self._plan)
        self._spare: Optional[list] = None
        self._index_of = {row[0].pci: index
                          for index, row in enumerate(self._plan)}
        self._last_xy: Optional[tuple] = None

    def measure_rsrp(self, position) -> list:
        """RSRP of every cell at ``position`` (the UE's measurement
        report), in ``deployment.cells`` order.

        One call is one tick: it moves this UE's shadow fields on by
        the distance from the previous call's position, so drives go
        through :meth:`step`, which calls it once.  A tick takes one
        standard normal per cell and Box-Muller makes two, so ticks
        alternate: one draws a pair from every cell's generator (two
        ``random()`` each), uses the ``cos`` halves and keeps the
        ``sin`` halves as the spare column; the next uses that column
        and draws nothing.  Draws and float expressions are those of
        the stdlib normal variate that :class:`ShadowingField` calls,
        so every report ``==`` that reference's plus :func:`rsrp_dbm`.
        A first tick has no previous position to correlate with
        (``rho`` 0, all of ``sigma`` is innovation): the field's
        initial draw.
        """
        x, y = position.x, position.y
        if self._last_xy is None:
            rho, root = 0.0, 1.0
        else:
            last_x, last_y = self._last_xy
            rho = exp(-hypot(x - last_x, y - last_y)
                      / DEFAULT_SHADOW_CORRELATION_M)
            root = sqrt(max(0.0, 1 - rho ** 2))
        self._last_xy = (x, y)
        normals, self._spare = self._spare, None
        if normals is None:
            normals, self._spare = [], []
            use, keep = normals.append, self._spare.append
            for rand in self._randoms:
                x2pi = rand() * TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - rand()))
                use(cos(x2pi) * g2rad)
                keep(sin(x2pi) * g2rad)
        report, shadows = [], []
        append, store = report.append, shadows.append
        for (cell, cell_x, cell_y, slope, sigma), z, shadow \
                in zip(self._plan, normals, self._shadows):
            # ``mu + z * sigma`` with mu 0.0, as the stdlib writes it.
            shadow = rho * shadow + (0.0 + z * (sigma * root))
            store(shadow)
            distance = hypot(cell_x - x, cell_y - y)
            append((cell.tx_power_dbm
                    - (DEFAULT_REFERENCE_LOSS_DB + slope * log10(
                        distance if distance > 1.0 else 1.0))) + shadow)
        self._shadows = shadows
        return report

    def step(self, t: float, position) -> tuple:
        """One measurement cycle.

        Returns ``(serving_rsrp, handover_to)``: the serving RSRP after
        this cycle, and the Cell switched to (or None).
        """
        report = self.measure_rsrp(position)
        if self.serving is None:
            best_rsrp = max(report)
            self.serving = self._plan[report.index(best_rsrp)][0]
            return best_rsrp, self.serving

        # A3: the first strongest cell above serving + hysteresis, among
        # the serving cell's neighbour list or the whole report.
        serving_rsrp = report[self._index_of[self.serving.pci]]
        best_index = None
        best_rsrp = serving_rsrp + self.hysteresis_db
        if self.use_neighbor_list:
            for cell in self.deployment.neighbors_of(self.serving.pci):
                index = self._index_of[cell.pci]
                if report[index] > best_rsrp:
                    best_index, best_rsrp = index, report[index]
        else:
            strongest = max(report)
            if strongest > best_rsrp:
                best_index, best_rsrp = report.index(strongest), strongest

        if best_index is None:
            self._candidate_pci = None
            self._candidate_since = None
            return serving_rsrp, None
        best_candidate = self._plan[best_index][0]

        if self._candidate_pci != best_candidate.pci:
            # A3 entered for a (new) candidate: start the TTT clock.
            self._candidate_pci = best_candidate.pci
            self._candidate_since = t
            return serving_rsrp, None

        if t - self._candidate_since >= self.time_to_trigger_s:
            self.serving = best_candidate
            self._candidate_pci = None
            self._candidate_since = None
            return best_rsrp, best_candidate
        return serving_rsrp, None


def simulate_drive(deployment: Deployment, trajectory: Trajectory,
                   duration: Optional[float] = None,
                   hysteresis_db: float = DEFAULT_HYSTERESIS_DB,
                   time_to_trigger_s: float = DEFAULT_TIME_TO_TRIGGER_S,
                   use_neighbor_list: bool = False,
                   sample_interval: float = DEFAULT_SAMPLE_INTERVAL_S,
                   ue_id: int = 0, seed: int = 0) -> DriveLog:
    """Drive the trajectory, logging handovers and the capacity trace."""
    duration = duration if duration is not None \
        else trajectory.total_duration
    selector = CellSelector(deployment, hysteresis_db, time_to_trigger_s,
                            use_neighbor_list, ue_id=ue_id, seed=seed)
    log = DriveLog(duration=duration)
    t = 0.0
    while t <= duration:
        position = trajectory.position_at(t)
        previous = selector.serving
        rsrp, switched_to = selector.step(t, position)
        if switched_to is not None and previous is not switched_to:
            log.handovers.append(HandoverRecord(
                at=t,
                from_pci=previous.pci if previous else None,
                to_pci=switched_to.pci,
                from_operator=previous.operator if previous else None,
                to_operator=switched_to.operator))
        log.samples.append((t, selector.serving.pci, rsrp,
                            capacity_bps(rsrp)))
        t += sample_interval
    # The initial camping on a cell is not a handover.
    if log.handovers and log.handovers[0].from_pci is None:
        log.handovers.pop(0)
    return log
