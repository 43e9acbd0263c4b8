"""Spawn-safety rules: what may cross the process-backend boundary.

The sharded engine's process pool (``repro.sharding.remote.spawn_pool``)
starts workers with the ``spawn`` context: a worker is a
fresh interpreter that re-imports every task by qualified name and
unpickles its arguments.  That only works when

* the task callable is a **module-level function** -- lambdas and closures
  pickle by reference to a scope that does not exist in the worker;
* task payload classes are **module-level, dataclass/slots-style plain
  data** -- no locks, no file handles, no live engines smuggled in a field.

Two rules enforce this:

:class:`SpawnTaskClassRule`
    In the designated spawn-payload locations (``repro.sharding.remote``
    for the task dataclasses, ``TraceContext`` in ``repro.obs.trace``),
    every class must be a frozen-style module-level dataclass (or define
    ``__slots__``), must not be nested inside a function, and must not
    declare fields whose annotation or default smells like live state
    (``threading.*`` primitives, open handles, engines, lambdas).

:class:`ProcessSubmitRule`
    In the process-capable fan-out layer (``repro.sharding``), the callable
    handed to ``.submit(...)`` / ``.map_unordered(...)`` must not be a
    ``lambda`` or a function defined in an enclosing function scope (a
    closure).  Bound methods and module-level names are accepted: the linter
    cannot see pool kinds through variables -- the rule targets the
    constructs that can *never* cross a spawn boundary.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.analysis.framework import ModuleInfo, Rule, Violation

#: Modules whose module-level classes are all spawn payloads.
SPAWN_PAYLOAD_MODULES: Set[str] = {"repro.sharding.remote"}

#: Individually designated spawn-payload classes elsewhere.
SPAWN_PAYLOAD_CLASSES: Dict[str, Set[str]] = {
    "repro.core.request": {"SearchRequest"},
    "repro.obs.trace": {"TraceContext"},
}

#: Packages whose submit sites may feed a process pool.
PROCESS_CAPABLE_PACKAGES: Set[str] = {"sharding"}

#: Annotation / default-value name fragments that signal live state a
#: spawn payload must never carry.
_LIVE_STATE_NAMES = (
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "Thread",
    "Engine",
    "BufferPool",
    "IO",
    "TextIOWrapper",
    "BufferedReader",
    "BufferedWriter",
)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _defines_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
    return False


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Forward references ("BufferPool") count too.
            yield node.value


class SpawnTaskClassRule(Rule):
    """Spawn-payload classes must be module-level plain-data dataclasses."""

    rule_id = "pickle-safety"
    description = (
        "classes shipped to spawned workers (sharding.remote tasks, "
        "TraceContext) must be module-level dataclass/slots plain data with "
        "no lock/handle/engine-typed fields and no callable defaults"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        designated = SPAWN_PAYLOAD_CLASSES.get(module.name, set())
        whole_module = module.name in SPAWN_PAYLOAD_MODULES
        if not whole_module and not designated:
            return
        # Classes nested in functions can never be unpickled by a spawned
        # worker: the qualified name is not importable.
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.ClassDef) and (
                    whole_module or inner.name in designated
                ):
                    yield self.violation(
                        module,
                        inner,
                        f"spawn payload class {inner.name} is defined inside "
                        f"function {node.name}; spawned workers re-import "
                        "classes by qualified name, so it must be "
                        "module-level",
                    )
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not whole_module and node.name not in designated:
                continue
            yield from self._check_class(module, node)

    def _check_class(self, module: ModuleInfo, node: ast.ClassDef) -> Iterator[Violation]:
        if not _is_dataclass_decorated(node) and not _defines_slots(node):
            yield self.violation(
                module,
                node,
                f"spawn payload class {node.name} must be a dataclass or "
                "define __slots__: plain declared fields are what keeps the "
                "pickled form an explicit, reviewable contract",
            )
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and statement.annotation is not None:
                for name in _annotation_names(statement.annotation):
                    if name in _LIVE_STATE_NAMES:
                        yield self.violation(
                            module,
                            statement,
                            f"spawn payload field in {node.name} is annotated "
                            f"with live state ({name}); ship a plain "
                            "description (path, id, parameters) instead",
                        )
                        break
                if statement.value is not None and isinstance(statement.value, ast.Lambda):
                    yield self.violation(
                        module,
                        statement,
                        f"spawn payload field in {node.name} defaults to a "
                        "lambda, which cannot be pickled by reference",
                    )


class ProcessSubmitRule(Rule):
    """No lambdas/closures submitted where a process pool may execute them."""

    rule_id = "spawn-submit"
    description = (
        "in the process-capable layer (sharding), the callable passed to "
        ".submit()/.map_unordered() must not be a lambda or a closure -- "
        "spawned workers import tasks by qualified name"
    )

    _METHODS = {"submit", "map_unordered"}

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if module.package not in PROCESS_CAPABLE_PACKAGES:
            return
        # Names of functions defined inside other functions: submitting one
        # submits a closure.
        nested_defs: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in node.body:
                    for sub in ast.walk(inner):
                        if (
                            isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and sub is not node
                        ):
                            nested_defs.add(sub.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in self._METHODS):
                continue
            if not node.args:
                continue
            callable_arg = node.args[0]
            if isinstance(callable_arg, ast.Lambda):
                yield self.violation(
                    module,
                    node,
                    f".{func.attr}() receives a lambda; a process worker "
                    "cannot unpickle it -- use a module-level function",
                )
            elif isinstance(callable_arg, ast.Name) and callable_arg.id in nested_defs:
                yield self.violation(
                    module,
                    node,
                    f".{func.attr}() receives nested function "
                    f"{callable_arg.id!r}, a closure; a process worker "
                    "cannot unpickle it -- use a module-level function",
                )
