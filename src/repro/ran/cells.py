"""Cell deployments: towers on a plane, owned by bTelcos of any scale."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .geometry import Point
from .propagation import DEFAULT_TX_POWER_DBM


@dataclass
class Cell:
    """One cell site: where it is, who runs it, how it radiates.

    ``operator`` is the owning bTelco's identity — in CellBricks adjacent
    cells routinely belong to *different* operators, which is what makes
    "switching towers often implies switching bTelcos" (§4.2).

    A cell holds no per-UE state.  What a UE receives from it is
    computed by that UE's :class:`~repro.ran.selection.CellSelector`,
    which owns the shadowing realisation; ``tx_power_dbm`` is read
    live on every measurement, the other fields when a selector is
    built.
    """

    position: Point
    operator: str
    #: physical cell id; left unset, the owning :class:`Deployment`
    #: numbers the cell by its 1-based position.
    pci: Optional[int] = None
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    path_loss_exponent: float = 3.7
    #: terrain-dependent shadowing depth: ~4 dB open suburban, ~8 dB
    #: dense urban canyons.
    shadowing_sigma_db: float = 7.0

    def identity_salt(self) -> int:
        """A seed salt derived from the cell's position alone, so a
        cell's shadowing does not depend on how its deployment happens
        to number it."""
        x = int(self.position.x * 1000)
        y = int(self.position.y * 1000)
        return ((x * 2654435761) ^ (y * 40503)) & 0xFFFFFFFF


@dataclass
class Deployment:
    """A set of cells covering an area: topology only (PCI lookup and
    the neighbour list).  Measuring it is the selector's job."""

    cells: list = field(default_factory=list)

    def __post_init__(self):
        self._by_pci: dict[int, Cell] = {}
        #: pci -> every other cell, nearest first (``neighbors_of``).
        self._neighbors: dict[int, list] = {}
        owned, self.cells = self.cells, []
        for cell in owned:
            self.add(cell)

    def add(self, cell: Cell) -> Cell:
        """Append ``cell``, numbering it if it has no PCI.  A PCI is the
        key selectors and the neighbour list find a cell by, so one
        already present is refused."""
        pci = len(self.cells) + 1 if cell.pci is None else cell.pci
        if pci in self._by_pci:
            raise ValueError(f"PCI {pci} is already in this deployment")
        cell.pci = pci
        self.cells.append(cell)
        self._by_pci[pci] = cell
        self._neighbors.clear()
        return cell

    def cell(self, pci: int) -> Optional[Cell]:
        return self._by_pci.get(pci)

    def neighbors_of(self, pci: int, count: int = 6) -> list:
        """The network-provided neighbor list (§4.2's 'network-assisted'
        hint): the geographically closest cells."""
        ranked = self._neighbors.get(pci)
        if ranked is None:
            serving = self.cell(pci)
            if serving is None:
                return []
            ranked = [cell for cell in self.cells if cell.pci != pci]
            ranked.sort(key=lambda cell:
                        cell.position.distance_to(serving.position))
            self._neighbors[pci] = ranked
        return ranked[:count]


def corridor_deployment(length_m: float, inter_site_distance_m: float,
                        operators: tuple = ("op-a", "op-b"),
                        offset_m: float = 40.0,
                        shadowing_sigma_db: float = 7.0,
                        rng: Optional[random.Random] = None) -> Deployment:
    """Cells along a road corridor, alternating (or randomly drawn)
    between operators — the many-small-bTelcos world.

    Sites sit ``offset_m`` off the road, alternating sides, with mild
    placement jitter so handover points are not perfectly periodic.
    """
    rng = rng or random.Random(0)
    deployment = Deployment()
    x = inter_site_distance_m / 2
    index = 0
    while x < length_m + inter_site_distance_m:
        jitter = rng.uniform(-0.15, 0.15) * inter_site_distance_m
        side = offset_m if index % 2 == 0 else -offset_m
        operator = operators[rng.randrange(len(operators))]
        deployment.add(Cell(position=Point(x + jitter, side),
                            operator=operator,
                            shadowing_sigma_db=shadowing_sigma_db))
        x += inter_site_distance_m
        index += 1
    return deployment
