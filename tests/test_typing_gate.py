"""The strict typing gate: configuration invariants always, mypy when present.

mypy is a CI-only tool (the lint job installs it; it is not a runtime
dependency), so the actual type check runs here only when the interpreter
has it.  What *always* runs are the structural invariants the gate rests
on: the gate modules stay listed in pyproject, ``py.typed`` ships with the
package, and every function in the gated modules carries complete
annotations -- checked directly over the ASTs, so an unannotated def
sneaking into a gate module fails fast even without mypy.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: Module globs held to the strict flag block in pyproject.toml.
GATE_FILES = (
    "repro/obs/__init__.py",
    "repro/obs/__main__.py",
    "repro/obs/analyze.py",
    "repro/obs/logsetup.py",
    "repro/obs/recording.py",
    "repro/obs/report.py",
    "repro/obs/trace.py",
    "repro/sharding/remote.py",
    "repro/storage/__init__.py",
    "repro/storage/blocks.py",
    "repro/storage/buffer_pool.py",
    "repro/storage/builder.py",
    "repro/storage/disk_tree.py",
    "repro/storage/layout.py",
    "repro/analysis/framework.py",
    "repro/analysis/kernelpurity.py",
    "repro/analysis/lockorder.py",
)

_HAS_MYPY = importlib.util.find_spec("mypy") is not None


def test_py_typed_marker_ships():
    assert os.path.exists(os.path.join(SRC, "repro", "py.typed"))


def test_pyproject_pins_the_gate_modules():
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        pyproject = handle.read()
    assert "[tool.mypy]" in pyproject
    for module_glob in (
        "repro.obs.*",
        "repro.sharding.remote",
        "repro.storage.*",
        "repro.analysis.*",
    ):
        assert module_glob in pyproject, f"{module_glob} fell out of the typing gate"
    assert "disallow_untyped_defs" in pyproject


@pytest.mark.parametrize("relative", GATE_FILES)
def test_gate_module_defs_are_fully_annotated(relative):
    """AST-level disallow_untyped_defs: runs with or without mypy."""
    path = os.path.join(SRC, relative)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    missing = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = node.args
        for argument in arguments.args + arguments.kwonlyargs + arguments.posonlyargs:
            if argument.annotation is None and argument.arg not in ("self", "cls"):
                missing.append(f"{node.name}:{node.lineno} arg {argument.arg}")
        for star in (arguments.vararg, arguments.kwarg):
            if star is not None and star.annotation is None:
                missing.append(f"{node.name}:{node.lineno} *{star.arg}")
        if node.returns is None and node.name != "__init__":
            missing.append(f"{node.name}:{node.lineno} return")
    assert not missing, f"unannotated defs in {relative}: {missing}"


@pytest.mark.skipif(not _HAS_MYPY, reason="mypy not installed (CI-only tool)")
def test_mypy_gate_passes():
    completed = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, (
        f"mypy gate failed:\n{completed.stdout}\n{completed.stderr}"
    )
