"""Every function in ``src/repro`` is named by something other than
itself.

A function or method that nothing names — no call, no attribute, no
handler string in a ``Leg`` table, no ``getattr`` key — cannot run, so
it is dead code that tests, reviews and refactors still pay for.  The
check is by name, over ``src``, ``tests``, ``benchmarks`` and
``examples``: a reference inside the function's own body does not
count, and neither does a re-export (an ``import`` line or an
``__all__`` string).  Dunder methods are called by the language and are
skipped.  Anything that must stay although nothing names it goes in
``UNREFERENCED`` with its reason.
"""

import ast
import collections
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples")

#: ``module::qualname`` -> why it stays although nothing names it.
UNREFERENCED = {
    "core/broker.py::Brokerd.archive_settled":
        "the only non-test caller of BillingVerifier.archive_session; "
        "wiring it into a run moves the smoke JSON, so it waits for the "
        "re-pin (CHANGES.md FOUND line)",
}


@functools.cache
def _trees() -> list:
    trees = []
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            trees.append((path, ast.parse(path.read_text())))
    return trees


def _definitions():
    """``(module::qualname, name, node)`` for every module-level function
    and every method of a module-level (or nested) class."""
    def visit(body, rel, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, rel, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{rel}::{prefix}{node.name}", node.name, node

    for path, tree in _trees():
        if SRC in path.parents:
            yield from visit(tree.body, path.relative_to(SRC).as_posix(), "")


def _names(tree) -> collections.Counter:
    """Every identifier ``tree`` names: variables, attributes, and
    identifier-shaped strings, minus ``__all__`` lists."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(id(element) for element in ast.walk(node.value))
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in exported:
            names[node.value] += 1
    return names


@functools.cache
def _unreferenced() -> dict:
    everywhere = collections.Counter()
    for _, tree in _trees():
        everywhere.update(_names(tree))
    found = {}
    for key, name, node in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        if everywhere[name] - _names(node)[name] <= 0:
            found[key] = node.lineno
    return found


def test_every_function_is_named_by_something_else():
    stray = sorted(set(_unreferenced()) - set(UNREFERENCED))
    assert stray == [], (
        "defined but never named outside their own body: delete them, "
        "give them the caller the paper or a gate needs, or list them in "
        f"UNREFERENCED with the reason: {stray}")


def test_every_exemption_is_still_needed():
    assert sorted(set(UNREFERENCED) - set(_unreferenced())) == []
