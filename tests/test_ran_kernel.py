"""The per-UE RAN sampling kernel (``CellSelector.measure_rsrp``).

Three contracts: the kernel is bit-for-bit the scalar composition it
replaced (``ShadowingField.sample`` + ``rsrp_dbm`` per cell), a small
fleet drive's digest does not move, and the per-cell path it replaced
stays deleted with ``CellSelector.step`` the only way in.
"""

import ast
import random
from pathlib import Path

import pytest

from repro.ran import (
    Cell,
    CellSelector,
    Deployment,
    Point,
    ShadowingField,
    rsrp_dbm,
)
from repro.testbed.fleet_drive import run_fleet_drive

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


# -- bit-exactness against the scalar reference ------------------------------

class ScalarReference:
    """What ``Deployment.measure`` used to compute, one cell at a time."""

    def __init__(self, deployment, ue_id, seed):
        self.fields = [
            (cell, ShadowingField(sigma_db=cell.shadowing_sigma_db,
                                  seed=seed ^ cell.identity_salt() ^ ue_id))
            for cell in deployment.cells]

    def measure(self, position):
        return [rsrp_dbm(cell.tx_power_dbm,
                         cell.position.distance_to(position),
                         field.sample(position), cell.path_loss_exponent)
                for cell, field in self.fields]


def _mixed_deployment(rng):
    deployment = Deployment()
    for i in range(9):
        deployment.add(Cell(
            position=Point(i * 150.0 + rng.uniform(-30, 30),
                           rng.choice((-35.0, 35.0))),
            operator=f"op-{i % 3}",
            path_loss_exponent=rng.choice((2.9, 3.7, 4.1)),
            shadowing_sigma_db=rng.choice((0.0, 4.0, 7.0, 8.5))))
    return deployment


@pytest.mark.parametrize("seed,ue_id", [(11, 0), (3, 5), (2 ** 31, 63)])
def test_kernel_equals_scalar_reference(seed, ue_id):
    rng = random.Random(seed)
    deployment = _mixed_deployment(rng)
    selector = CellSelector(deployment, ue_id=ue_id, seed=seed)
    reference = ScalarReference(deployment, ue_id, seed)
    position = deployment.cells[0].position    # 0 m: the 1 m clamp
    for tick in range(400):
        if tick == 200:
            deployment.cells[3].tx_power_dbm -= 60.0       # site outage
        if not 120 <= tick < 160:                          # parked stretch
            position = Point(position.x + rng.uniform(0.0, 6.0),
                             position.y + rng.uniform(-1.5, 1.5))
        assert selector.measure_rsrp(position) \
            == reference.measure(position), f"tick {tick}"


def test_step_reports_the_kernels_serving_rsrp():
    deployment = _mixed_deployment(random.Random(5))
    stepped = CellSelector(deployment, seed=5)
    measured = CellSelector(deployment, seed=5)
    for tick in range(300):
        position = Point(tick * 4.0, 0.0)
        rsrp, _ = stepped.step(tick * 0.2, position)
        report = measured.measure_rsrp(position)
        assert rsrp == report[deployment.cells.index(stepped.serving)]


# -- the fleet drive's bytes -------------------------------------------------

@pytest.mark.parametrize("rat,digest", [("lte", "01764b133a7e133c"),
                                        ("5g", "7f577477c1ecce1a")])
def test_fleet_drive_digest_pinned(rat, digest):
    """Taken at the commit before the kernel: every RSRP sample feeds a
    handover decision, so one moved bit or RNG draw moves this."""
    report = run_fleet_drive(rat, ues=2, duration=20, seed=11, sites=4)
    assert report["digest"] == digest


# -- the deleted path stays deleted; step() is the only way in ---------------

def _calls(tree, attr):
    """(enclosing class, enclosing function) of every ``x.<attr>(...)``."""
    found = []

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and func is None:
            func = node.name
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == attr:
            found.append((cls, func))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(tree, None, None)
    return found


def _parse(rel):
    return ast.parse((SRC / rel).read_text())


def test_per_cell_measurement_path_is_gone():
    cell = Cell(position=Point(0.0, 0.0), operator="op")
    for gone in ("rsrp_at", "shadowing_for", "_shadowing"):
        assert not hasattr(cell, gone)
    assert not hasattr(Deployment(), "measure")


def test_step_is_the_only_caller_of_the_kernel():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        callers = _calls(ast.parse(path.read_text()), "measure_rsrp")
        if rel == "ran/selection.py":
            assert callers == [("CellSelector", "step")]
        else:
            assert not callers, f"{rel} samples around CellSelector.step"
    # The two drive loops tick each selector once, through step() — the
    # name the ledger's ``ran`` span is attached to.
    assert _calls(_parse("testbed/fleet_drive.py"), "step") \
        == [("_FleetDriver", "_tick")]
    assert _calls(_parse("ran/selection.py"), "step") \
        == [(None, "simulate_drive")]


def test_guard_sees_a_planted_call():
    planted = ast.parse(
        "class Rogue:\n"
        "    def tick(self, ue, pos):\n"
        "        return ue.selector.measure_rsrp(pos)\n")
    assert _calls(planted, "measure_rsrp") == [("Rogue", "tick")]
