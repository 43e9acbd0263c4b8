"""The public surface of every package, unchanged by the lazy exports.

Package ``__init__`` files export through :func:`repro._lazy.lazy_exports`
(one mechanism; see CONTRIBUTING, "Imports").  These tests pin what a caller
can see: every name in ``__all__`` resolves, to the object its submodule
defines; ``dir()``, ``from pkg import *``, pickling and attribute errors
behave as they do for an eagerly populated package; and the two listings an
``__init__`` carries -- the ``TYPE_CHECKING`` imports that tools read and the
table the interpreter reads -- name the same things.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pickle
import re
import subprocess
import sys
from typing import Dict, Set

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.datagen",
    "repro.experiments",
    "repro.obs",
    "repro.parallel",
    "repro.scoring",
    "repro.sequences",
    "repro.sharding",
    "repro.storage",
    "repro.suffixtree",
)


def init_tree(package: str) -> ast.Module:
    path = os.path.join(SRC, *package.split("."), "__init__.py")
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def type_checking_block(package: str) -> ast.If:
    """The one ``if TYPE_CHECKING: ... else: ...`` statement of an ``__init__``."""
    blocks = [
        node
        for node in init_tree(package).body
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    ]
    assert len(blocks) == 1, f"{package}: expected one TYPE_CHECKING block"
    return blocks[0]


def declared_imports(package: str) -> Dict[str, str]:
    """name -> module, from the imports under ``if TYPE_CHECKING:``."""
    names: Dict[str, str] = {}
    for node in type_checking_block(package).body:
        assert isinstance(node, ast.ImportFrom) and node.level == 0, ast.dump(node)
        for alias in node.names:
            assert alias.asname is None
            names[alias.name] = node.module
    return names


def lazy_table(package: str) -> Dict[str, str]:
    """name -> module, from the ``lazy_exports(__name__, {...})`` literal."""
    (statement,) = type_checking_block(package).orelse
    assert isinstance(statement, ast.Assign)
    targets = [element.id for element in statement.targets[0].elts]
    assert targets == ["__getattr__", "__dir__"]
    call = statement.value
    assert isinstance(call, ast.Call) and call.func.id == "lazy_exports"
    assert isinstance(call.args[0], ast.Name) and call.args[0].id == "__name__"
    names: Dict[str, str] = {}
    for module, exported in ast.literal_eval(call.args[1]).items():
        for name in exported:
            assert name not in names, f"{package}: {name} listed twice"
            names[name] = module
    return names


@pytest.mark.parametrize("package", PACKAGES)
def test_all_resolves_to_the_defining_submodules_objects(package):
    module = importlib.import_module(package)
    table = lazy_table(package)
    for name in module.__all__:
        if name == "__version__":
            continue
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(table[name]), name), name
        defined_in = getattr(value, "__module__", None)
        if isinstance(defined_in, str) and not defined_in.startswith(("typing", "builtins")):
            assert defined_in.startswith("repro."), (name, defined_in)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_exactly_all(package):
    namespace: Dict[str, object] = {}
    exec(f"from {package} import *", namespace)
    namespace.pop("__builtins__")
    module = importlib.import_module(package)
    assert set(namespace) == set(module.__all__)
    assert len(module.__all__) == len(set(module.__all__))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_is_an_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    for name in ("no_such_export", "_no_such_private"):
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            getattr(module, name)
        assert not hasattr(module, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_type_checking_block_and_lazy_table_list_the_same_names(package):
    declared, table = declared_imports(package), lazy_table(package)
    assert declared == table
    exported: Set[str] = set(importlib.import_module(package).__all__) - {"__version__"}
    assert set(table) == exported


def test_classes_pickle_by_reference_through_the_package_root():
    import repro

    assert pickle.loads(pickle.dumps(repro.SearchHit)) is repro.SearchHit
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            if isinstance(value, type):
                assert pickle.loads(pickle.dumps(value)) is value, (package, name)


def run_python(*arguments: str, cwd: str = REPO_ROOT) -> subprocess.CompletedProcess:
    environment = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *arguments],
        env=environment,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_subpackages_are_reachable_after_a_bare_import_repro():
    finished = run_python(
        "-c",
        "import repro\n"
        "assert repro.obs.Tracer.__module__ == 'repro.obs.trace'\n"
        "assert repro.sharding.ShardedEngine.__name__ == 'ShardedEngine'\n"
        "from repro import OasisEngine, SearchHit\n"
        "assert 'obs' in dir(repro) and 'OasisEngine' in dir(repro)\n",
    )
    assert finished.returncode == 0, finished.stderr


def test_an_export_outranks_the_submodule_of_the_same_name():
    """``repro.obs.analyze`` is the function, however the module got loaded."""
    finished = run_python(
        "-c",
        "import sys\n"
        "from repro.obs.analyze import TraceAnalysis\n"  # binds the submodule first
        "import repro.obs\n"
        "from repro.obs import analyze\n"
        "assert analyze is sys.modules['repro.obs.analyze'].analyze, analyze\n"
        "assert repro.obs.analyze is analyze and repro.obs.TraceAnalysis is TraceAnalysis\n",
    )
    assert finished.returncode == 0, finished.stderr


@pytest.mark.parametrize("entry_point", ["report", "validate"])
def test_obs_entry_points_start_without_a_double_import_warning(entry_point, tmp_path):
    """runpy warns when ``python -m pkg`` finds ``pkg.__main__`` already loaded by
    its package; the lazy ``repro.obs`` loads nothing, so nothing can shadow."""
    finished = run_python(
        "-W", "error::RuntimeWarning", "-m", "repro.obs", entry_point, cwd=str(tmp_path)
    )
    assert "RuntimeWarning" not in finished.stderr, finished.stderr
    assert "Traceback" not in finished.stderr, finished.stderr


def test_the_old_per_tool_entry_points_are_gone(tmp_path):
    """``repro.obs.validate`` no longer exists; the modules that stay are
    libraries -- no ``main``, no ``__main__`` block -- behind ``-m repro.obs``.
    ``regress`` (the benchmark-record sentry; ``bench_e2e/`` is the one
    performance record) is an unknown subcommand: a usage error, no traceback."""
    finished = run_python("-m", "repro.obs.validate", cwd=str(tmp_path))
    assert finished.returncode != 0 and "No module named" in finished.stderr
    for module in ("report", "recording"):
        loaded = importlib.import_module(f"repro.obs.{module}")
        assert not hasattr(loaded, "main"), module
        assert "__main__" not in inspect.getsource(loaded), module
    finished = run_python("-m", "repro.obs", "regress", cwd=str(tmp_path))
    assert finished.returncode == 2
    assert "invalid choice: 'regress'" in finished.stderr, finished.stderr
    assert "Traceback" not in finished.stderr, finished.stderr


def test_the_version_has_one_source():
    """``repro.__version__`` is the literal; pyproject.toml points at it."""
    import repro

    assignments = [
        node.value.value
        for node in init_tree("repro").body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["__version__"]
        and isinstance(node.value, ast.Constant)
    ]
    assert assignments == [repro.__version__]  # a literal setuptools reads statically
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        pyproject = handle.read()
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^dynamic\s*=\s*\[\s*"version"\s*\]', project, re.MULTILINE)
    assert not re.search(r"^version\s*=", project, re.MULTILINE), "a second literal can drift"
    assert re.search(
        r'^\[tool\.setuptools\.dynamic\]\nversion\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}',
        pyproject,
        re.MULTILINE,
    )


def test_the_removed_engine_names_are_gone():
    """One searching surface, ``OasisEngine``; one way to a disk engine, an
    opened index; one emission timeline, each hit's ``emitted_at``."""
    import importlib.util

    from repro.core.engine import OasisEngine
    from repro.sharding import ShardedEngine

    assert importlib.util.find_spec("repro.core.surface") is None
    core = importlib.import_module("repro.core")
    assert not hasattr(core, "SearchSurface") and not hasattr(core, "OnlineResultLog")
    assert not hasattr(OasisEngine, "build_on_disk")
    assert not hasattr(ShardedEngine, "build_on_disk") and "build" not in ShardedEngine.__dict__
