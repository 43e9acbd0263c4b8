"""The rule registry: one place that says which invariants are enforced.

Adding a rule is a three-step change, all in this package:

1. implement a :class:`~repro.analysis.framework.Rule` subclass in the
   module that owns its rule family (or a new module),
2. add one entry here,
3. seed a violating fixture in ``tests/test_analysis.py`` so the rule is
   proven to fire.

The registry is ordered: reports group naturally by family, and the CLI's
``--list-rules`` catalog prints in this order.
"""

from __future__ import annotations

from typing import List

from repro.analysis.determinism import (
    BareExceptRule,
    MutableDefaultRule,
    TracerGuardRule,
    UnorderedIterationRule,
)
from repro.analysis.framework import Rule
from repro.analysis.kernelpurity import KernelPurityRule
from repro.analysis.layering import LayeringRule
from repro.analysis.lockdiscipline import LockBlockingRule, LockScopeRule
from repro.analysis.picklesafety import ProcessSubmitRule, SpawnTaskClassRule
from repro.analysis.timesource import WallClockRule


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in report order."""
    return [
        LayeringRule(),
        SpawnTaskClassRule(),
        ProcessSubmitRule(),
        LockScopeRule(),
        LockBlockingRule(),
        UnorderedIterationRule(),
        BareExceptRule(),
        MutableDefaultRule(),
        TracerGuardRule(),
        WallClockRule(),
        KernelPurityRule(),
    ]


def rule_catalog() -> str:
    """The enforced-invariant catalog, one rule per paragraph (CI prints this)."""
    lines: List[str] = ["Enforced invariants (repro.analysis):"]
    for rule in all_rules():
        lines.append(f"  {rule.rule_id}: {rule.description}")
    lines.append(
        "Suppression: `# repro: allow[rule-id]` on the offending line; "
        "suppressions are counted and reported, never silent."
    )
    return "\n".join(lines)
