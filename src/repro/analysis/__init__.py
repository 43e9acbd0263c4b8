"""Repo-native static analysis for the OASIS reproduction.

``python -m repro.analysis src/`` parses every source file and runs the
registered invariant rules (import layering, spawn safety, lock
discipline, determinism).  Exit codes mirror ``python -m repro.obs``:
0 clean, 1 violations or parse errors, 2 usage error.

The package also hosts the *runtime* lock-order detector
(:mod:`repro.analysis.lockorder`), which is wired into tests rather than
into the static pass.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.framework import (
        AnalysisReport,
        ModuleInfo,
        Rule,
        Violation,
        analyze_paths,
        iter_python_files,
        load_module,
        module_name_for,
    )
    from repro.analysis.registry import all_rules, rule_catalog
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.analysis.framework": (
                "AnalysisReport",
                "ModuleInfo",
                "Rule",
                "Violation",
                "analyze_paths",
                "iter_python_files",
                "load_module",
                "module_name_for",
            ),
            "repro.analysis.registry": ("all_rules", "rule_catalog"),
        },
    )

__all__ = [
    "AnalysisReport",
    "ModuleInfo",
    "Rule",
    "Violation",
    "all_rules",
    "analyze_paths",
    "iter_python_files",
    "load_module",
    "module_name_for",
    "rule_catalog",
]
