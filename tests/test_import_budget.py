"""The import budget: a process loads the layers it enters and no others.

Every case runs in a fresh interpreter (``PYTHONPATH=src`` only) and looks
at ``sys.modules`` once the action is over.  NumPy is a build-side
dependency only (see README, "Cold start"): ``import repro.cli`` and a
``search --index`` load none of it, nor any module that builds a tree or an
image.  A ``search --database`` builds its tree in memory and so still
loads NumPy; there a module counts against the budget only if a bare
``import numpy`` does not already load it, because what NumPy imports
differs between releases and is not ours to budget.  A failure names the
offending modules, which is usually enough to find the module-scope import
that pulled them in::

    PYTHONPATH=src python -X importtime -c "import repro.cli" 2>&1 | sort -t'|' -k2 -n | tail
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Iterable, List, Sequence, Set

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
MARKER = "LOADED-MODULES:"


def loaded_after(code: str, arguments: Sequence[str] = ()) -> Set[str]:
    """Run ``code`` in a fresh interpreter; return the names in ``sys.modules``."""
    script = code + f"\nimport sys\nprint({MARKER!r} + ' '.join(sorted(sys.modules)))\n"
    finished = subprocess.run(
        [sys.executable, "-c", script, *arguments],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    line = [row for row in finished.stdout.splitlines() if row.startswith(MARKER)][-1]
    return set(line[len(MARKER):].split())


def offenders(loaded: Iterable[str], forbidden: Iterable[str]) -> List[str]:
    """Loaded modules that are, or live under, one of the ``forbidden`` names."""
    names = tuple(forbidden)
    return sorted(
        module
        for module in loaded
        if any(module == name or module.startswith(name + ".") for name in names)
    )


CLI_SEARCH = (
    "import sys\n"
    "import repro.cli\n"
    "status = repro.cli.main(['search', *sys.argv[1:]])\n"
    "assert status == 0, status\n"
)


@pytest.fixture(scope="module")
def numpy_alone() -> Set[str]:
    return loaded_after("import numpy")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A tiny FASTA, one query cut from it, and a 1-shard index over it."""
    from repro.datagen.protein import SwissProtLikeGenerator
    from repro.scoring.data import load_matrix
    from repro.scoring.gaps import FixedGapModel
    from repro.sequences.fasta import write_fasta
    from repro.sharding.builder import ShardedIndexBuilder

    directory = tmp_path_factory.mktemp("import-budget")
    database = SwissProtLikeGenerator(seed=5, family_count=3, singleton_count=2).generate()
    fasta = str(directory / "tiny.fasta")
    write_fasta(database, fasta)
    index = str(directory / "tiny.index")
    ShardedIndexBuilder(load_matrix("PAM30"), FixedGapModel(-8), shard_count=1).build(
        database, index
    )
    return fasta, index, database[0].sequence.text[3:15]


def test_import_repro_loads_no_layer():
    loaded = loaded_after("import repro")
    # repro._lazy is the export mechanism itself (importlib + sys, nothing else).
    layers = sorted(m for m in loaded if m.startswith("repro.") and m != "repro._lazy")
    assert not layers, f"`import repro` loaded {layers}"
    assert not offenders(loaded, ["numpy"]), "`import repro` loaded numpy"


def test_import_cli_loads_no_optional_layer():
    loaded = loaded_after("import repro.cli")
    found = offenders(
        loaded,
        [
            "numpy",
            "http.server",
            "ssl",
            "email",
            "cProfile",
            "multiprocessing",
            "concurrent.futures.process",
            "subprocess",
            "repro.obs.promexport",
            "repro.obs.analyze",
            "repro.obs.stackprof",
            "repro.experiments",
            "repro.analysis",
            "repro.baselines",
            "repro.datagen",
        ],
    )
    assert not found, f"`import repro.cli` loaded {found}"


def test_database_search_stays_inside_core(corpus, numpy_alone):
    fasta, _, query = corpus
    loaded = loaded_after(CLI_SEARCH, ["--database", fasta, "--query", query, "--evalue", "10"])
    loaded -= numpy_alone
    # numpy.ma: np.unique and friends import it on first call (~10 ms).
    # concurrent.futures.thread / queue: one query (or --workers 1) is a
    # loop on the serial backend, not a pool of one thread.
    found = offenders(
        loaded,
        [
            "repro.sharding",
            "multiprocessing",
            "socket",
            "hashlib",
            "numpy.ma",
            "concurrent.futures.thread",
            "queue",
        ],
    )
    found += sorted(
        m for m in loaded if m.startswith("repro.obs.") and m != "repro.obs.logsetup"
    )
    assert not found, f"`search --database` loaded {found}"
    assert "repro.core.oasis" in loaded  # the search did run in that process


#: What builds a tree or an image: a disk query opens one and builds nothing.
BUILD_SIDE = [
    "numpy",
    "repro.suffixtree.suffix_array",
    "repro.suffixtree.generalized",
    "repro.storage.builder",
    "repro.sharding.builder",
    "repro.sharding.planner",
]


def test_index_search_loads_no_builder_no_pool_and_no_telemetry(corpus):
    _, index, query = corpus
    loaded = loaded_after(CLI_SEARCH, ["--index", index, "--query", query, "--evalue", "10"])
    found = offenders(loaded, ["multiprocessing", "http.server", *BUILD_SIDE])
    found += sorted(
        m
        for m in loaded
        if m.startswith("repro.obs.") and m not in ("repro.obs.logsetup", "repro.obs.trace")
    )
    assert not found, f"`search --index` loaded {found}"
    assert "repro.storage.disk_tree" in loaded


def test_a_sharded_index_search_starts_no_thread_pool(corpus, tmp_path):
    """The default scatter is the serial loop: no pool, no thread but main."""
    from repro.scoring.data import load_matrix
    from repro.scoring.gaps import FixedGapModel
    from repro.sequences.fasta import read_fasta
    from repro.sharding.builder import ShardedIndexBuilder

    fasta, _, query = corpus
    index = str(tmp_path / "two.index")
    ShardedIndexBuilder(load_matrix("PAM30"), FixedGapModel(-8), shard_count=2).build(
        read_fasta(fasta), index
    )
    only_main = (
        "import threading\n"
        "names = [thread.name for thread in threading.enumerate()]\n"
        "assert names == ['MainThread'], names\n"
    )
    loaded = loaded_after(
        CLI_SEARCH + only_main, ["--index", index, "--query", query, "--evalue", "10"]
    )
    assert "repro.sharding.engine" in loaded
    assert "concurrent.futures.thread" not in loaded


def test_trace_flag_still_loads_obs_and_writes_a_valid_trace(corpus, tmp_path):
    fasta, _, query = corpus
    trace = str(tmp_path / "trace.jsonl")
    loaded = loaded_after(
        CLI_SEARCH, ["--database", fasta, "--query", query, "--evalue", "10", "--trace", trace]
    )
    assert {"repro.obs.trace", "repro.obs.recording"} <= loaded

    # The reader is a tool of its own: checking the file loads no engine
    # layer, no NumPy and none of the live instruments.
    tool = (
        "import sys\n"
        "from repro.obs.__main__ import main\n"
        "assert main(['validate', sys.argv[1]]) == 0\n"
    )
    found = offenders(
        loaded_after(tool, [trace]),
        [
            "numpy",
            "http.server",
            "cProfile",
            "repro.core",
            "repro.obs.promexport",
            "repro.obs.stackprof",
        ],
    )
    assert not found, f"`python -m repro.obs validate` loaded {found}"
