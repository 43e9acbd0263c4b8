"""Lock-discipline rules: scoped acquisition, no blocking work under a lock.

The storage and sharding layers are the two places where every search
thread meets shared mutable state (the buffer pool's page table, the
sharded engine's lazily created process pool).  Two rules keep that concurrency auditable:

:class:`LockScopeRule`
    Every lock acquisition must be ``with``-scoped.  A bare ``.acquire()``
    /``.release()`` pair leaks the lock on any exception between them --
    the classic way a crashed query wedges every later one.  Applies to
    the whole tree: there is no legitimate bare acquire anywhere in this
    codebase.

:class:`LockBlockingRule`
    Inside a ``with <lock>:`` block in ``storage/`` and ``sharding/``, no
    I/O-ish or future-blocking call may run: a physical read, a sleep, a
    ``Future.result()`` or a pool ``shutdown(wait=True)`` executed while
    holding the pool lock serialises every concurrent reader behind one
    stall (and ``.result()`` under a lock is one lock-ordering edge away
    from deadlock).  The buffer pool's design comment says it outright:
    "the physical read happens *outside* the lock"; this rule makes the
    comment enforceable.  The tree has no exception to it: block reads are
    positional (``os.pread``), so not even the file handle needs a lock
    around its read.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.framework import ModuleInfo, Rule, Violation

#: Packages in which blocking-under-lock is checked.
LOCK_SENSITIVE_PACKAGES: Set[str] = {"storage", "sharding"}

#: Attribute names that look like a lock object.
_LOCKISH_NAMES = ("lock", "mutex", "condition", "cond")

#: Method names that block on I/O, time, or another task's completion.
_BLOCKING_METHODS: Set[str] = {
    "read",
    "write",
    "flush",
    "seek",
    "read_block",
    "pread",
    "write_block",
    "readinto",
    "recv",
    "send",
    "result",
    "shutdown",
    "wait",
    "sleep",
}

#: Bare calls that block.
_BLOCKING_FUNCTIONS: Set[str] = {"open", "print", "input"}


def _is_lockish(expr: ast.expr) -> bool:
    """Heuristic: does this expression name a lock?"""
    if isinstance(expr, ast.Attribute):
        name = expr.attr.lower()
    elif isinstance(expr, ast.Name):
        name = expr.id.lower()
    else:
        return False
    return any(fragment in name for fragment in _LOCKISH_NAMES)


class LockScopeRule(Rule):
    """Lock acquire/release must go through ``with``; bare calls are banned."""

    rule_id = "lock-scope"
    description = (
        "threading locks must be acquired with a `with` block; bare "
        ".acquire()/.release() calls leak the lock on any exception "
        "in between"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("acquire", "release"):
                continue
            if not _is_lockish(func.value):
                # `.acquire()` on non-lock-named receivers (semaphores named
                # otherwise, unrelated APIs) is out of scope by design.
                continue
            yield self.violation(
                module,
                node,
                f"bare .{func.attr}() on a lock -- use `with <lock>:` so the "
                "lock is released on every exit path",
            )


class LockBlockingRule(Rule):
    """No blocking call while a lock is held in storage/ and sharding/."""

    rule_id = "lock-io"
    description = (
        "in storage/ and sharding/, no I/O, sleep, Future.result() or pool "
        "shutdown may run inside a `with <lock>:` block -- a stall under "
        "the lock serialises every concurrent reader behind it"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if module.package not in LOCK_SENSITIVE_PACKAGES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.With):
                continue
            if not any(_is_lockish(item.context_expr) for item in node.items):
                continue
            for statement in node.body:
                yield from self._check_subtree(module, statement)

    def _check_subtree(self, module: ModuleInfo, statement: ast.stmt) -> Iterator[Violation]:
        for node in ast.walk(statement):
            # A nested `with` over a *different* resource stays in scope: the
            # outer lock is still held.  (Nested lock acquisition itself is
            # the runtime lock-order detector's department.)
            if isinstance(node, ast.Call):
                message = self._blocking_call(node)
                if message is not None:
                    yield self.violation(module, node, message)

    def _blocking_call(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _BLOCKING_FUNCTIONS:
            return (
                f"{func.id}() called while a lock is held -- do the I/O "
                "outside the lock and install the result after"
            )
        if isinstance(func, ast.Attribute) and func.attr in _BLOCKING_METHODS:
            receiver = ""
            if isinstance(func.value, ast.Name):
                receiver = func.value.id
            elif isinstance(func.value, ast.Attribute):
                receiver = func.value.attr
            # dict.clear()/list methods named like blockers do not exist in
            # _BLOCKING_METHODS, but time.sleep and future.result do; the
            # receiver is reported to make the finding reviewable.
            return (
                f".{func.attr}() on {receiver or 'an object'} while a lock "
                "is held -- blocking work must move outside the `with` block"
            )
        return None
