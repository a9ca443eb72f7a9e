"""The per-UE RAN sampling kernel (``CellSelector.measure_rsrp``).

Four contracts: the kernel is bit-for-bit the scalar composition it
replaced (``ShadowingField.sample`` + ``rsrp_dbm`` per cell) although
it makes its own normals, a Box-Muller pair per cell every other tick;
``step``'s ``max`` search picks what the A3 loop picked; a small fleet
drive's digest does not move; and the per-cell path it replaced stays
deleted with ``CellSelector.step`` the only way in.
"""

import ast
import random
from math import ceil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.ran import (
    Cell,
    CellSelector,
    Deployment,
    Point,
    ShadowingField,
    rsrp_dbm,
)
from repro.ran import selection
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


def _pair_deployment():
    """Four cells; the second has no shadow at all (``sigma`` 0.0)."""
    return Deployment([
        Cell(Point(i * 220.0, 30.0 - 60.0 * (i % 2)), f"op-{i % 2}",
             shadowing_sigma_db=sigma)
        for i, sigma in enumerate((7.0, 0.0, 4.0, 8.5))])


@pytest.mark.parametrize("calls", [1, 2, 3, 9])
def test_pair_parity_equals_scalar_reference(calls):
    """Every stopping parity: on the fresh pair, on the spare, after
    both.  Ticks 4..7 are parked (``root == 0.0``): normals are still
    consumed, from a spare column and from a fresh pair."""
    deployment = _pair_deployment()
    selector = CellSelector(deployment, ue_id=2, seed=calls)
    reference = ScalarReference(deployment, 2, calls)
    for tick in range(calls):
        position = Point(min(tick, 3) * 17.0 + max(0, tick - 7) * 5.0, 1.0)
        report = selector.measure_rsrp(position)
        assert report == reference.measure(position), f"tick {tick}"
        bare = deployment.cells[1]
        assert report[1] == rsrp_dbm(
            bare.tx_power_dbm, bare.position.distance_to(position))


def test_two_selectors_interleave_on_one_deployment():
    """The spare column is per selector: two UEs ticking out of phase
    on one deployment each stay on their own reference."""
    deployment = _mixed_deployment(random.Random(8))
    ues = [(CellSelector(deployment, ue_id=ue, seed=8),
            ScalarReference(deployment, ue, 8)) for ue in (1, 2)]
    schedule = random.Random(80)
    for tick in range(120):
        selector, reference = ues[schedule.random() < 0.6]
        position = Point(tick * 3.0, schedule.uniform(-2.0, 2.0))
        assert selector.measure_rsrp(position) \
            == reference.measure(position), f"tick {tick}"


@pytest.mark.parametrize("calls", [1, 2, 3, 4, 7])
def test_draws_are_counted(monkeypatch, calls):
    """M ticks cost each cell ``2 * ceil(M / 2)`` uniforms — where M
    ``gauss`` calls leave the stream — and no ``gauss`` call."""
    made = []

    class Counting(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.randoms = self.gausses = 0
            made.append(self)

        def random(self):
            self.randoms += 1
            return super().random()

        def gauss(self, mu=0.0, sigma=1.0):
            self.gausses += 1
            return super().gauss(mu, sigma)

    monkeypatch.setattr(selection, "random",
                        SimpleNamespace(Random=Counting))
    deployment = _pair_deployment()
    selector = CellSelector(deployment, ue_id=4, seed=21)
    reference = ScalarReference(deployment, 4, 21)
    for tick in range(calls):
        selector.measure_rsrp(Point(tick * 9.0, 0.0))
        reference.measure(Point(tick * 9.0, 0.0))
    assert len(made) == len(deployment.cells)
    assert [rng.randoms for rng in made] \
        == [2 * ceil(calls / 2)] * len(made)
    assert not any(rng.gausses for rng in made)
    # Same Mersenne Twister position as the reference's generators.
    assert [rng.getstate()[1] for rng in made] \
        == [field.rng.getstate()[1] for _, field in reference.fields]


def test_step_reports_the_kernels_serving_rsrp():
    deployment = _mixed_deployment(random.Random(5))
    stepped = CellSelector(deployment, seed=5)
    measured = CellSelector(deployment, seed=5)
    for tick in range(300):
        position = Point(tick * 4.0, 0.0)
        rsrp, _ = stepped.step(tick * 0.2, position)
        report = measured.measure_rsrp(position)
        assert rsrp == report[deployment.cells.index(stepped.serving)]


# -- A3: one max() is the loop it replaced -----------------------------------

def _loop_step(self, t, report):
    """``CellSelector.step`` as it stood before the ``max`` search: a
    Python loop over every candidate, strictly-greater wins."""
    if self.serving is None:
        best_rsrp = max(report)
        self.serving = self._plan[report.index(best_rsrp)][0]
        return best_rsrp, self.serving
    serving_rsrp = report[self._index_of[self.serving.pci]]
    if self.use_neighbor_list:
        candidates = [self._index_of[cell.pci] for cell in
                      self.deployment.neighbors_of(self.serving.pci)]
    else:
        candidates = range(len(self._plan))
    best_index = None
    best_rsrp = serving_rsrp + self.hysteresis_db
    for index in candidates:
        rsrp = report[index]
        if rsrp > best_rsrp:
            best_index, best_rsrp = index, rsrp
    if best_index is None:
        self._candidate_pci = None
        self._candidate_since = None
        return serving_rsrp, None
    best_candidate = self._plan[best_index][0]
    if self._candidate_pci != best_candidate.pci:
        self._candidate_pci = best_candidate.pci
        self._candidate_since = t
        return serving_rsrp, None
    if t - self._candidate_since >= self.time_to_trigger_s:
        self.serving = best_candidate
        self._candidate_pci = None
        self._candidate_since = None
        return best_rsrp, best_candidate
    return serving_rsrp, None


@pytest.mark.parametrize("use_neighbor_list", [False, True])
@pytest.mark.parametrize("hysteresis_db", [3.0, 0.0, -2.0])
def test_max_search_equals_the_a3_loop(hysteresis_db, use_neighbor_list):
    """Reports drawn from five levels, so most ticks hold exact ties
    for the maximum; a negative hysteresis lets the serving cell be
    its own candidate.  Same returns and same A3 state every tick."""
    rng = random.Random(int(hysteresis_db * 10) + use_neighbor_list)
    deployment = _mixed_deployment(rng)
    stepped, looped = (
        CellSelector(deployment, hysteresis_db, 0.4, use_neighbor_list)
        for _ in range(2))
    levels = (-101.0, -98.0, -95.0, -92.0, -90.5)
    switches = ties = 0
    stepped.measure_rsrp = lambda position: report     # the tick's, below
    for tick in range(600):
        if tick % 3 == 0:                  # held 0.6 s: long enough to fire
            report = [rng.choice(levels) for _ in deployment.cells]
            ties += report.count(max(report)) > 1
        t = tick * 0.2
        outcome = stepped.step(t, None)
        assert outcome == _loop_step(looped, t, report), tick
        assert (stepped.serving, stepped._candidate_pci,
                stepped._candidate_since) \
            == (looped.serving, looped._candidate_pci,
                looped._candidate_since), tick
        switches += outcome[1] is not None
    assert switches > 40 and ties > 100


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


def test_the_kernel_owns_its_normals_and_the_reference_does_not():
    """One kernel, one reference: nothing in ``ran/selection.py`` so
    much as names ``gauss`` (no fallback to it), and the scalar
    ``ShadowingField`` keeps calling the stdlib's — the pairing that
    turns a stdlib change into a failed parity test."""
    assert not [node for node in ast.walk(_parse("ran/selection.py"))
                if isinstance(node, ast.Attribute) and node.attr == "gauss"]
    assert _calls(_parse("ran/propagation.py"), "gauss") \
        == [("ShadowingField", "__init__"), ("ShadowingField", "sample")]


def test_guard_sees_a_planted_call():
    planted = ast.parse(
        "class Rogue:\n"
        "    def tick(self, ue, pos):\n"
        "        return ue.selector.measure_rsrp(pos)\n")
    assert _calls(planted, "measure_rsrp") == [("Rogue", "tick")]
