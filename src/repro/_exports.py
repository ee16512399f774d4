"""Lazy package exports: a package imports a submodule the first time
one of its names is read (PEP 562).

Every ``repro`` package ``__init__`` holds one literal table,
``_EXPORTS``, mapping each of its submodules to the names the package
exports from it, and ends with::

    __getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)

``__all__`` is every name in the table, so each public name is listed
once.  Reading a name imports its submodule and stores the value in the
package namespace; later reads are plain attribute lookups.  Every
submodule in the table is an attribute of its package too, imported on
first read.  A run thus loads the kernel it uses and that kernel's own
imports, not the whole library.  The table is a literal so that
:mod:`repro.analyze` resolves package re-exports from it without
importing anything (:class:`~repro.analyze.walker.ModuleInfo`).
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``."""
    module = sys.modules[package]
    namespace = vars(module)
    home = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        sub = home.get(name)
        if sub is None:
            if name not in table:
                raise AttributeError(f"module {package!r} has no attribute {name!r}")
            # Importing a submodule binds it on its package.
            return importlib.import_module(f"{package}.{name}")
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | home.keys() | table.keys())

    if any(sub in names for sub, names in table.items()):
        module.__class__ = _ExportOverSubmodule
    return __getattr__, __dir__, list(home)


class _ExportOverSubmodule(ModuleType):
    """A package with a submodule that exports its own name, as
    :mod:`repro.trace.replay` exports :func:`~repro.trace.replay.replay`.

    The import system binds every submodule it loads on its package,
    whoever imports it.  That would hide the export behind the
    submodule, so the export is bound instead: the package attribute is
    the function, as it was when packages imported eagerly.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, ModuleType) and name in self._EXPORTS.get(name, ()):
            value = getattr(value, name)
        super().__setattr__(name, value)
