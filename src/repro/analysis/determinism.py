"""Determinism rules: the habits that silently break byte-identical merges.

The engine's headline guarantee -- sharded, batched, process-scattered
searches return *byte-identical* results to the monolithic serial engine --
only holds while every ordering decision is explicit.  These rules flag the
Python constructs that erode it:

:class:`UnorderedIterationRule`
    Iterating a ``set`` (literal, ``set(...)``/``frozenset(...)`` call, or
    set-comprehension) in the determinism-sensitive layers (``core``,
    ``sharding``, ``storage``, ``suffixtree``) without an enclosing
    ``sorted(...)``.  Set order varies across processes (hash
    randomisation), so a set-driven loop feeding hit ordering or catalog
    serialization is exactly how two workers produce differently-ordered
    "identical" results.  Dict iteration is insertion-ordered and therefore
    deterministic -- it is deliberately not flagged.

:class:`BareExceptRule`
    ``except:`` swallows ``KeyboardInterrupt``/``SystemExit`` and every
    bug; a search stack that must report timeouts and aborts faithfully
    cannot afford invisible failure paths.

:class:`MutableDefaultRule`
    ``def f(x=[])`` shares one list across calls *and across threads*; in
    a batch executor that is a data race dressed up as a default.

:class:`TracerGuardRule`
    In ``core/`` hot paths, every ``tracer.``/``span.`` call must sit
    behind an ``is not None`` guard.  The telemetry contract is "one
    identity check when disabled"; an unguarded call either crashes the
    no-tracer path or quietly imposes tracer overhead on every search.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

from repro.analysis.framework import ModuleInfo, Rule, Violation

#: Packages whose iteration order feeds merge ordering or serialization.
ORDER_SENSITIVE_PACKAGES: Set[str] = {"core", "sharding", "storage", "suffixtree"}

#: Packages whose hot paths must keep telemetry behind None guards.
TRACER_GUARDED_PACKAGES: Set[str] = {"core"}


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # set algebra: s | t, s & t, s - t, s ^ t over set expressions.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


class UnorderedIterationRule(Rule):
    """No direct set iteration in order-sensitive layers; sort it first."""

    rule_id = "unordered-iter"
    description = (
        "in core/, sharding/, storage/ and suffixtree/, iterating a set "
        "(or set expression) must go through sorted(...): set order varies "
        "across processes and corrupts byte-identical merge ordering"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if module.package not in ORDER_SENSITIVE_PACKAGES:
            return
        sorted_spans = self._sorted_call_spans(module.tree)
        for node in ast.walk(module.tree):
            iterables: List[ast.expr] = []
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iterables.extend(generator.iter for generator in node.generators)
            for iterable in iterables:
                if _is_set_expression(iterable) and not self._inside_sorted(
                    iterable, sorted_spans
                ):
                    yield self.violation(
                        module,
                        iterable,
                        "iterating a set directly; wrap it in sorted(...) so "
                        "the order is deterministic across processes",
                    )

    @staticmethod
    def _sorted_call_spans(tree: ast.Module) -> List[ast.Call]:
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("sorted", "min", "max", "sum", "len", "any", "all")
        ]

    @staticmethod
    def _inside_sorted(node: ast.expr, calls: List[ast.Call]) -> bool:
        """Whether the iterable sits lexically inside an order-erasing call.

        ``sorted`` restores determinism; ``min``/``max``/``sum``/``len``/
        ``any``/``all`` erase ordering entirely, so set iteration under
        them is harmless.
        """
        for call in calls:
            for child in ast.walk(call):
                if child is node:
                    return True
        return False


class BareExceptRule(Rule):
    """``except:`` is banned everywhere."""

    rule_id = "bare-except"
    description = (
        "bare `except:` swallows KeyboardInterrupt/SystemExit and hides "
        "bugs; name the exception type (at minimum `except Exception:`)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    module,
                    node,
                    "bare `except:`; catch a named exception type",
                )


class MutableDefaultRule(Rule):
    """No mutable default arguments anywhere."""

    rule_id = "mutable-default"
    description = (
        "mutable default arguments ([], {}, set(), list()/dict()/set() "
        "calls) are shared across calls and threads; default to None and "
        "construct inside the function"
    )

    _MUTABLE_CALLS = ("list", "dict", "set", "bytearray", "defaultdict", "OrderedDict")

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        module,
                        default,
                        f"mutable default argument in {name}(); use None and "
                        "build the container inside the function",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False


class TracerGuardRule(Rule):
    """core/ telemetry calls must sit behind an ``is not None`` guard."""

    rule_id = "tracer-guard"
    description = (
        "in core/, calls on tracer/span objects must be guarded by "
        "`if <tracer> is not None:` (or an early `if <tracer> is None: "
        "return`): the disabled path pays one identity check, nothing more"
    )

    #: Receiver names treated as telemetry handles.
    _TELEMETRY_NAMES = ("tracer", "span")

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if module.package not in TRACER_GUARDED_PACKAGES:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleInfo, function: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> Iterator[Violation]:
        guarded_lines = self._guarded_line_ranges(function)
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            root = self._telemetry_root(func.value)
            if root is None:
                continue
            if any(start <= node.lineno <= stop for start, stop in guarded_lines):
                continue
            yield self.violation(
                module,
                node,
                f"unguarded telemetry call {root}.{func.attr}(...) in core/; "
                f"wrap it in `if {root} is not None:` or return early when "
                "the tracer is None",
            )

    def _telemetry_root(self, expr: ast.expr) -> Optional[str]:
        """``tracer`` for ``tracer.x``, ``self.tracer.y``; None otherwise."""
        if isinstance(expr, ast.Name) and expr.id in self._TELEMETRY_NAMES:
            return expr.id
        if isinstance(expr, ast.Attribute) and expr.attr in self._TELEMETRY_NAMES:
            return expr.attr
        return None

    def _guarded_line_ranges(
        self, function: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> List[tuple]:
        """Line ranges in which telemetry calls count as guarded.

        Two accepted shapes, both trivially greppable:

        * ``if <x> is not None:`` -- the if-body lines are guarded when
          ``<x>`` is a telemetry name (``tracer``, ``self.tracer``,
          ``span``);
        * an early exit ``if <x> is None: return/raise/continue`` at
          function statement level -- every line after it is guarded.
        """
        ranges: List[tuple] = []
        for node in ast.walk(function):
            if not isinstance(node, ast.If):
                continue
            comparison = node.test
            if not (
                isinstance(comparison, ast.Compare)
                and len(comparison.ops) == 1
                and isinstance(comparison.comparators[0], ast.Constant)
                and comparison.comparators[0].value is None
                and self._telemetry_root(comparison.left) is not None
            ):
                continue
            if isinstance(comparison.ops[0], ast.IsNot):
                # Guarded suite: the true branch.
                stop = max(
                    (getattr(n, "end_lineno", n.lineno) for n in node.body),
                    default=node.lineno,
                )
                start = min(n.lineno for n in node.body)
                ranges.append((start, stop))
            elif isinstance(comparison.ops[0], ast.Is):
                # `if x is None: return` -- everything after is guarded;
                # `if x is None: ... else: <suite>` -- the else suite is.
                if node.orelse:
                    stop = max(
                        getattr(n, "end_lineno", n.lineno) for n in node.orelse
                    )
                    ranges.append((min(n.lineno for n in node.orelse), stop))
                if any(
                    isinstance(n, (ast.Return, ast.Raise, ast.Continue, ast.Break))
                    for n in node.body
                ):
                    function_end = getattr(function, "end_lineno", node.lineno)
                    ranges.append((getattr(node, "end_lineno", node.lineno) + 1, function_end))
        return ranges
