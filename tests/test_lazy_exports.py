"""The lazy package namespaces cannot drift from the modules they name.

Every subpackage's exports are one table, ``name -> (module,
attribute)``, installed by :func:`repro.lazy_exports`.  A table entry
that names the wrong module, a misspelt attribute or a stale alias would
only fail when some process first touches that name; these checks touch
every name in every package.
"""

import importlib
import sys

import pytest

import repro

PACKAGES = ("analysis", "apps", "core", "crypto", "emulation", "fivegc",
            "lte", "net", "obs", "ran", "testbed")


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_defining_object(name):
    package = importlib.import_module(f"repro.{name}")
    table = package._exports
    listed = dir(package)
    assert sorted(package.__all__) == sorted(table)
    for export, (module, attribute) in table.items():
        defining = importlib.import_module(module, package.__name__)
        expected = (defining if attribute is None
                    else getattr(defining, attribute))
        assert getattr(package, export) is expected, export
        assert export in listed, export


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(f"repro.{name}")
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    assert not hasattr(package, "no_such_export")


def test_aliases_and_submodule_exports():
    from repro import fivegc, lte, testbed
    from repro.lte.enodeb import ENodeB
    from repro.testbed.megaload import run_cell

    assert fivegc.Gnb is ENodeB
    assert fivegc.nas5g is sys.modules["repro.fivegc.nas5g"]
    assert (lte.aka, lte.nas, lte.s6a) == tuple(
        sys.modules[f"repro.lte.{m}"] for m in ("aka", "nas", "s6a"))
    assert testbed.run_megaload_cell is run_cell


def test_a_submodule_outside_the_table_still_imports():
    from repro.testbed import broker_scale

    assert broker_scale is sys.modules["repro.testbed.broker_scale"]
    assert "broker_scale" not in repro.testbed._exports


def test_an_import_error_is_not_turned_into_an_attribute_error():
    namespace = {"__name__": "repro"}
    repro.lazy_exports(namespace, {".no_such_module": "thing"})
    with pytest.raises(ModuleNotFoundError):
        namespace["__getattr__"]("thing")
    assert "thing" not in namespace
