"""The simulator is the run: what a run reads is its arguments and its
``Simulator``, nothing else.

Two halves.  The AST guard holds the rule in ``src/repro/``: no
sim-clock number can come from the wall clock (one module may read it,
to *report* what the run cost) and no output from what the process ran
before (no process-wide counter, no object address); and how a modular
power is computed is one module's business.  The pinned
mixed-fidelity digests hold its consequence: a megaload cell with a
real SAP cohort — the last model that charged a host measurement to the
sim clock — hashes the same in any process on any host.
"""

import ast
import functools
from pathlib import Path

import pytest

from repro.testbed.megaload import run_cell

from .test_megaload import MIXED

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the one module that reads the wall clock: ``MegaloadWorkload.run``
#: times ``sim.run`` for the report's ``perf`` block, which is printed
#: and uploaded but never hashed into a digest and never gated.
WALL_CLOCK_READERS = {"testbed/megaload.py"}

#: the one process-wide counter: ``packet._packet_ids`` keys a link's
#: in-flight dict on the per-packet path and is popped on delivery; the
#: id is in no span, report or digest, and drawing it from the simulator
#: would put an attribute chase on every ``Packet()`` for nothing.
PROCESS_COUNTERS = {"net/packet.py"}


@functools.cache
def _modules() -> list:
    return [(path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
            for path in sorted(SRC.rglob("*.py"))]


def _is_counter(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "count"
            and isinstance(func.value, ast.Name)
            and func.value.id == "itertools") \
        or (isinstance(func, ast.Name) and func.id == "count")


def _importers(*packages: str) -> set:
    """The modules under ``src/repro/`` that import any of ``packages``."""
    found = set()
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in packages for name in names):
                found.add(rel)
    return found


def test_the_wall_clock_has_one_reader():
    assert _importers("time", "datetime") == WALL_CLOCK_READERS


def test_no_identifier_outlives_its_run():
    counters, addresses = set(), set()
    for rel, tree in _modules():
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                continue
            if any(isinstance(node, ast.Call) and _is_counter(node)
                   for node in ast.walk(statement)):
                counters.add(rel)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "id" \
                    and [getattr(arg, "id", None) for arg in node.args] \
                    == ["self"]:
                addresses.add(rel)
    assert counters == PROCESS_COUNTERS
    assert addresses == set()


def test_the_power_has_one_kernel():
    """Under ``crypto/`` a three-argument ``pow`` is ``modexp``'s own, a
    Miller-Rabin squaring ``pow(x, 2, n)`` or an inverse ``pow(x, -1, m)``;
    and ``ctypes`` has exactly one importer under ``src/``."""
    stray = [f"{rel}:{node.lineno}"
             for rel, tree in _modules()
             if rel.startswith("crypto/") and rel != "crypto/modexp.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "pow"
             and len(node.args) == 3
             and ast.unparse(node.args[1]) not in ("2", "-1")]
    assert stray == []
    assert _importers("ctypes", "_ctypes") == {"crypto/modexp.py"}


@pytest.mark.parametrize("rat, pinned", [
    ("lte",
     "0f8dee16360649467e1be1e83304cd2b1261dffdfa78f02a04cf5ebee7e5a5f8"),
    ("5g",
     "6b6cfefaf78a0d49726c3c8343767e8fce7d76ed95d30b8bbed44422f6805256"),
])
def test_mixed_fidelity_cell_digest_is_pinned(rat, pinned):
    """``megaload.SMOKE_MIXED_DIGEST`` at a size tier-1 can afford."""
    assert run_cell(real_rat=rat, **MIXED)["digest"] == pinned
