"""Kernel-purity rule: the DP hot loops call no NumPy and emit no telemetry.

The production expansion kernel in ``repro.core.kernels`` is fast because a
column is two or three live cells handled as plain Python ints against
per-query lists; the dense form it replaced spent its time in the call
overhead of a dozen NumPy operations on a 15-element array.  Two easy ways
to quietly give that back are (1) reaching for NumPy inside a column loop --
any ``np.``/``numpy.`` call there costs more than the whole live-cell step --
and (2) calling into the tracer/metrics machinery from inside the loop (the
telemetry contract everywhere else is "nothing in the per-node loop").  The
list forms come from the :class:`~repro.core.expand.ExpansionContext`,
built once per query; telemetry stays at the driver level.

This rule makes both properties mechanical: inside any ``for``/``while``
loop of a function in ``repro.core.kernels``, a call rooted at ``np`` or
``numpy`` (``np.add``, ``np.maximum.accumulate``, ``numpy.empty_like``, ...)
and ``tracer``/``metrics`` attribute access are violations.
Outside loops NumPy is fine -- ``expand_arc`` turns the dense column of a
reference-built node into live cells once, before the walk.  The dense
reference form lives in ``repro.core.expand`` and is not held to this rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.framework import ModuleInfo, Rule, Violation

#: Modules whose functions are held to the purity contract.
KERNEL_MODULES: Tuple[str, ...] = ("repro.core.kernels",)

#: Attribute names whose presence inside a kernel loop means telemetry.
TELEMETRY_ATTRIBUTES: Tuple[str, ...] = ("tracer", "metrics")


class KernelPurityRule(Rule):
    """Kernel column loops must not call NumPy or touch telemetry."""

    rule_id = "kernel-purity"
    description = (
        "expansion-kernel loops (repro.core.kernels) must not call NumPy "
        "(any np./numpy. call) or touch tracer/metrics -- live cells are "
        "plain ints against per-query lists from ExpansionContext, "
        "telemetry stays in the driver"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if module.name not in KERNEL_MODULES:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleInfo, function: ast.AST
    ) -> Iterator[Violation]:
        for body_node in ast.iter_child_nodes(function):
            if isinstance(body_node, (ast.For, ast.While)):
                yield from self._check_loop(module, body_node)
            elif not isinstance(body_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Loops can hide anywhere (with-blocks, try, conditionals);
                # only nested function definitions restart the analysis with
                # their own loop nesting.
                yield from self._check_function(module, body_node)

    def _check_loop(self, module: ModuleInfo, loop: ast.AST) -> Iterator[Violation]:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                call = self._numpy_call(node.func)
                if call is not None:
                    yield self.violation(
                        module,
                        node,
                        f"{call}() inside a kernel loop; the live-cell step is "
                        "plain Python ints and lists -- convert outside the "
                        "loop or read a list form from the ExpansionContext",
                    )
            if isinstance(node, ast.Attribute) and node.attr in TELEMETRY_ATTRIBUTES:
                yield self.violation(
                    module,
                    node,
                    f"`.{node.attr}` access inside a kernel loop; telemetry "
                    "belongs in the search driver, never in the DP hot path",
                )

    @staticmethod
    def _numpy_call(func: ast.expr) -> Optional[str]:
        """The dotted name of a call rooted at ``np``/``numpy``, else ``None``."""
        parts: List[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if parts and isinstance(func, ast.Name) and func.id in ("np", "numpy"):
            return ".".join([func.id] + parts[::-1])
        return None
