"""Lazy package exports (PEP 562): the one mechanism every ``__init__`` uses.

A package ``__init__`` lists its re-exports twice, and a test keeps the two
lists equal: once as ordinary imports under ``if TYPE_CHECKING:`` (what mypy,
IDEs and readers see), once as the ``{module: names}`` table handed to
:func:`lazy_exports`, whose ``__getattr__`` imports a module the first time
one of its names is asked for.  ``import repro.<anything>`` therefore runs
only the ``__init__`` files above it, which import nothing, and a process
loads the layers it enters and no others.

This module imports from the standard library only (:mod:`importlib`,
:mod:`sys`, :mod:`types`, :mod:`typing`), so ``import repro`` costs what
``import typing`` costs.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


class _ExportsFirst(ModuleType):
    """A package in which an export outranks the submodule of the same name.

    Loading ``repro.obs.analyze`` makes the import system bind the *module*
    as ``repro.obs.analyze``, over the function ``analyze`` the package
    exports under that name.  An eager ``__init__`` rebinds the function
    afterwards; a lazy one is not running when the submodule loads, so the
    package refuses that one binding instead.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        shadows_export = (
            isinstance(value, ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in self.__dict__.get("__all__", ())
        )
        if not shadows_export:
            super().__setattr__(name, value)


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Build the module-level ``__getattr__`` / ``__dir__`` pair of ``package``.

    ``table`` maps a fully qualified module name to the names ``package``
    re-exports from it.  A name not in the table is tried as a submodule
    (``repro.obs`` after a bare ``import repro``); anything else raises the
    ``AttributeError`` a plain module would.  Resolved values are stored in
    the package namespace, so each name pays for one lookup.
    """
    origin: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    if any(module == f"{package}.{name}" for name, module in origin.items()):
        sys.modules[package].__class__ = _ExportsFirst

    def __getattr__(name: str) -> Any:
        missing = AttributeError(f"module {package!r} has no attribute {name!r}")
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("_"):
            raise missing
        else:
            qualified = f"{package}.{name}"
            try:
                value = importlib.import_module(qualified)
            except ModuleNotFoundError as error:
                if error.name != qualified:
                    raise
                raise missing from None
        sys.modules[package].__dict__[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(sys.modules[package].__dict__) | set(origin))

    return __getattr__, __dir__
