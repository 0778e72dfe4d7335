"""Start-up footprint: what a command imports, checked by value, never by time.

Package ``__init__``s resolve their exports on first use
(:mod:`repro._lazy`), and side paths import their own dependencies, so
a plain ``repro campaign`` never loads the serving stack.  These tests
look at ``sys.modules`` of a fresh interpreter.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = (
    "repro", "repro.core", "repro.dse", "repro.func", "repro.layout",
    "repro.model", "repro.netlist", "repro.obs", "repro.reporting",
    "repro.rtl", "repro.service", "repro.store", "repro.tech",
    "repro.workloads",
)


def loaded_after(code: str) -> set[str]:
    """Module names a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_campaign_skips_the_serving_stack():
    modules = loaded_after(
        "from repro.cli import main\n"
        "assert main(['campaign', '--spec', '65536:INT8']) == 0"
    )
    assert "repro.service.campaign" in modules  # the campaign did run
    unwanted = {
        "repro.service.server", "repro.service.cache", "repro.store",
        "asyncio", "sqlite3", "http.server",
    }
    assert not unwanted & modules


def test_cli_import_loads_no_numpy():
    modules = loaded_after("import repro.cli")
    assert "repro.cli" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_resolve_to_their_defining_module(package):
    pkg = importlib.import_module(package)
    eager = {"nsga2", "distill"} if package == "repro.dse" else set()
    owners = {
        name: module for module, names in pkg._EXPORTS.items() for name in names
    }
    assert sorted(pkg.__all__) == sorted(owners.keys() | eager)
    assert set(pkg.__all__) <= set(dir(pkg))
    for name in pkg.__all__:
        value = getattr(pkg, name)
        assert not isinstance(value, types.ModuleType), name
        module = owners.get(name, f"{package}.{name}")
        assert value is getattr(importlib.import_module(module), name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module, name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(pkg.__all__) <= namespace.keys()


def test_unknown_export_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(repro.core, "nope")


def test_shadowed_submodules_stay_functions():
    # nsga2 and distill share their submodules' names; importing the
    # submodules again must not rebind the package names to modules.
    import repro.dse.distill
    import repro.dse.nsga2
    from repro.dse import distill, nsga2

    assert isinstance(nsga2, types.FunctionType)
    assert isinstance(distill, types.FunctionType)
    assert nsga2 is sys.modules["repro.dse.nsga2"].nsga2
    assert distill is sys.modules["repro.dse.distill"].distill
