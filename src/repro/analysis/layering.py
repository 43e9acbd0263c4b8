"""Import-layering rule: the package DAG the engine's architecture rests on.

The repository is layered so the search core can never grow an upward
dependency on the machinery stacked on top of it::

    sequences
        -> scoring, datagen
            -> suffixtree
                -> storage
                    -> core
                        -> obs
                            -> sharding, parallel
                                -> experiments, baselines, cli,
                                   testing, analysis

A module may import (at module scope) only from its own layer or below.
Two escape hatches are deliberate, and both are visible in the source:

* ``if TYPE_CHECKING:`` imports are annotation-only -- they never execute,
  so they cannot create an import cycle or a load-order dependency; the
  engine facade uses one for ``BatchSearchReport`` annotations.
* Function-local (deferred) imports are the sanctioned way for a facade in
  a lower layer to *construct* upper-layer machinery on demand
  (``OasisEngine.search_many`` imports ``repro.parallel`` inside the
  method).  They execute only when called, long after import time, so the
  module graph stays a DAG.

Package ``__init__`` files use the first hatch wholesale: their re-exports
live under ``if TYPE_CHECKING:`` and are resolved on first use through
:func:`repro._lazy.lazy_exports`, so no ``__init__`` executes an import of
its own submodules, let alone of another layer, and ``import repro.core.x``
loads what ``x`` names and nothing a sibling package re-exports.
(``tests/test_import_budget.py`` holds the *run-time* import graph to the
same DAG: which modules a cold ``search`` may have loaded when it exits.)

Everything else -- a module-scope ``import repro.<upper layer>`` -- is a
violation, because it is exactly how layering erodes: one convenience
import and the core suddenly cannot load without the observability stack.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.analysis.framework import ModuleInfo, Rule, Violation

#: The layering DAG, bottom-up.  Packages in one group share a layer and may
#: import each other at module scope (the group is cycle-free by review;
#: today the one such import is ``experiments`` importing ``baselines``).
LAYERS: List[List[str]] = [
    ["sequences"],
    ["scoring", "datagen"],
    ["suffixtree"],
    ["storage"],
    ["core"],
    ["obs"],
    ["sharding", "parallel"],
    ["experiments", "baselines", "cli", "testing", "analysis"],
]

#: package -> layer index.
LAYER_OF: Dict[str, int] = {
    package: index for index, group in enumerate(LAYERS) for package in group
}


def layer_of(package: str) -> Optional[int]:
    """Layer index of a first-level package, or ``None`` when unknown."""
    return LAYER_OF.get(package)


def _imported_repro_packages(node: ast.AST, module: ModuleInfo) -> List[str]:
    """First-level ``repro`` packages a single import statement pulls in."""
    packages: List[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                packages.append(parts[1])
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            # Relative import: resolve against this module's own location.
            # For a package __init__ the module name *is* the package, so
            # one level strips zero components; for a plain module it
            # strips its own name first.
            base = module.name.split(".")
            strip = node.level - 1 if module.path.endswith("__init__.py") else node.level
            anchor = base[: len(base) - strip] if strip else base
            target = anchor + (node.module.split(".") if node.module else [])
            if len(target) > 1 and target[0] == "repro":
                packages.append(target[1])
        elif node.module:
            parts = node.module.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                packages.append(parts[1])
            elif parts == ["repro"]:
                # ``from repro import X`` -- the package root re-exports the
                # whole surface; only the top layer may do this.
                packages.append("__root__")
    return packages


def _module_scope_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module-level import statements, excluding ``if TYPE_CHECKING`` blocks."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and not _is_type_checking(node.test):
            # Module-scope conditional imports (version guards) still execute.
            for sub in node.body + node.orelse:
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    yield sub
        elif isinstance(node, ast.Try):
            for sub in node.body + node.orelse + node.finalbody:
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    yield sub
            for handler in node.handlers:
                for sub in handler.body:
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        yield sub


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    if isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING":
        return True
    return False


class LayeringRule(Rule):
    """Module-scope imports must point at the same layer or below."""

    rule_id = "layering"
    description = (
        "module-scope imports must respect the layering DAG "
        "(sequences -> scoring/datagen -> suffixtree -> storage -> core -> "
        "obs -> sharding/parallel -> top); defer upward imports into "
        "functions or TYPE_CHECKING blocks"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if not module.name or module.name == "repro":
            # The package root is the public facade and re-exports the top
            # of the stack by construction; files outside the package are
            # not part of the DAG.
            return
        importer_layer = layer_of(module.package)
        if importer_layer is None:
            return
        for node in _module_scope_imports(module.tree):
            for package in _imported_repro_packages(node, module):
                if package == "__root__":
                    if importer_layer < len(LAYERS) - 1:
                        yield self.violation(
                            module,
                            node,
                            f"{module.name} imports the repro package root, "
                            "which re-exports the whole stack -- import the "
                            "specific lower-layer module instead",
                        )
                    continue
                if package == module.package:
                    continue
                imported_layer = layer_of(package)
                if imported_layer is None:
                    continue
                if imported_layer > importer_layer:
                    yield self.violation(
                        module,
                        node,
                        f"{module.name} (layer {importer_layer}: "
                        f"{module.package}) imports repro.{package} (layer "
                        f"{imported_layer}) at module scope -- an upward "
                        "dependency; move the import into the function that "
                        "needs it, or behind TYPE_CHECKING if it is "
                        "annotation-only",
                    )
