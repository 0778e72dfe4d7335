"""Lazy package exports (PEP 562).

Each package ``__init__`` names the submodule that defines each of its
public names, and imports that submodule only when the name is first
read from the package.  ``import repro.core.spec`` therefore runs the
``repro`` and ``repro.core`` initialisers without importing every other
submodule of every package on the way.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining module's dotted name to the names it
    provides.  A resolved name is not stored in the package: every read
    returns the defining module's current attribute, so the two never
    disagree (a test that monkeypatches the module patches the package
    export too).
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owners})

    return __getattr__, __dir__
