"""The compiled frontier: the rules it shares with the Python walk, and
how it is built, cached and given up on.

Parity with the oracle lives with the other kernels'
(``tests/test_kernel_parity.py``, parametrized over every kernel that runs
here) and with its Python twin (``tests/test_frontier.py``).  The cases
here are what C adds: malformed arguments must raise, never crash the
process, and a host that cannot build the module must fall back to
``live`` -- or, when ``compiled`` is asked for by name, say why in one
line.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.cli import main
from repro.core import kernels
from repro.core.expand import ExpansionContext
from repro.core.kernels import LiveCellKernel, available_kernels, get_kernel
from repro.core.search_node import VIABLE_AFTER
from repro.scoring.data import nucleotide_matrix
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import PRODUCTION_KERNELS

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_kernels(), reason="the compiled step does not build here"
)

MATRIX = nucleotide_matrix(5, -4)
QUERY = "ACGTACGT"


def make_context(query=QUERY, min_score=10):
    codes = DNA_ALPHABET.encode(query)
    return ExpansionContext(
        query_codes=codes,
        score_rows=MATRIX.rows,
        gap_penalty=-1,
        gains=MATRIX.gains,
        min_score=min_score,
    )


@pytest.fixture(scope="module")
def tree():
    database = SequenceDatabase.from_texts(
        ["ACGTACGTTA", "GGACGTAC", "TTACG"], alphabet=DNA_ALPHABET
    )
    return GeneralizedSuffixTree.build(database)


def frontier(tree, context):
    """The C frontier over ``tree``, seeded with its root."""
    return get_kernel("compiled").node_frontier(tree.node_records, context, tree.root, None)


@needs_compiled
class TestTheRulesOfTheWalk:
    """Through the C frontier, ``frontier(...)`` and its ``advance``: what it
    does with bad input.  It builds the query's heuristic, profile and root
    column itself, from the context's ``query_codes``, ``gains`` and
    ``packed_score_rows``."""

    @pytest.mark.parametrize(
        "spoil",
        [
            pytest.param(
                lambda c: setattr(c, "query_codes", list(c.query_codes)), id="codes-list"
            ),
            pytest.param(lambda c: setattr(c, "gains", set(c.gains)), id="gains-set"),
            pytest.param(lambda c: setattr(c, "gains", dict(enumerate(c.gains))), id="gains-dict"),
            pytest.param(
                lambda c: setattr(c, "packed_score_rows", {0: c.packed_score_rows[0]}),
                id="rows-dict",
            ),
            pytest.param(
                lambda c: setattr(c, "packed_score_rows", [list(r) for r in c.packed_score_rows]),
                id="rows-of-lists",
            ),
            pytest.param(lambda c: setattr(c, "gains", [0.5] * len(c.gains)), id="gain-float"),
        ],
    )
    def test_a_non_list_or_tuple_argument_is_a_type_error(self, tree, spoil):
        context = make_context()
        spoil(context)
        with pytest.raises(TypeError):
            frontier(tree, context)

    def test_a_packed_score_row_that_is_not_one_int64_per_symbol_is_a_value_error(self, tree):
        context = make_context()
        context.packed_score_rows = [row[:-1] for row in MATRIX.packed_rows]
        with pytest.raises(ValueError, match="one int64 per symbol"):
            frontier(tree, context)

    @pytest.mark.parametrize("table", ["gains", "packed_score_rows"])
    def test_a_query_code_past_the_matrix_is_an_index_error(self, tree, table):
        # T, the query's largest code, is past a table cut before it.
        context = make_context()
        cut = max(context.query_codes)
        setattr(context, table, list(getattr(context, table))[:cut])
        with pytest.raises(IndexError):
            frontier(tree, context)

    @pytest.mark.parametrize("kernel", PRODUCTION_KERNELS)
    def test_a_symbol_past_the_alphabet_is_an_index_error(self, kernel):
        # A protein tree under a DNA profile: W is past the DNA alphabet.
        protein = GeneralizedSuffixTree.build(
            SequenceDatabase.from_texts(["WWYW", "YWW"], alphabet=PROTEIN_ALPHABET)
        )
        context = make_context()
        assert min(protein.node_records[2]) >= len(context.profile_rows)
        searched = get_kernel(kernel).frontier(protein, context, protein.root, None)
        with pytest.raises(IndexError):
            searched.advance(None, 1)

    @pytest.mark.parametrize("kernel", PRODUCTION_KERNELS)
    def test_a_live_row_at_m_is_an_index_error(self, tree, kernel):
        # Row m has no substitution score: a finished column never holds it,
        # and neither does a root column, whose row m has h = 0.
        context = make_context()
        assert (len(QUERY), 0) not in context.make_root_cells()
        parent = (-40, VIABLE_AFTER, 0, tree.root, [(len(QUERY), 40)], 0, 0)
        with pytest.raises(IndexError):
            get_kernel(kernel).expand_children(parent, tree.siblings(tree.root), context)

    @pytest.mark.parametrize("score", [2**62 + 1, 2**70, -(2**63), 2**61])
    def test_a_score_past_two_to_the_62_is_an_overflow_error(self, tree, score):
        # Python ints never overflow; the C frontier refuses what an int64
        # sum could not hold rather than wrap: a gain past 2**62, or a
        # heuristic that sums past it.
        context = make_context()
        context.gains = [score] * len(context.gains)
        with pytest.raises(OverflowError):
            frontier(tree, context)


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """The build and load run again, into a cache directory of this test's own."""
    kernels._compiled_step.cache_clear()
    monkeypatch.delenv("OASIS_KERNEL", raising=False)
    cache = tmp_path / "cache"
    monkeypatch.setattr(kernels, "_cache_directory", lambda: str(cache))
    yield cache
    kernels._compiled_step.cache_clear()


def fake_compiler(directory, exit_code):
    """A 'gcc' that counts its runs in ``runs`` next to it and exits ``exit_code``."""
    script = directory / "fake-gcc"
    script.write_text(f'#!/bin/sh\necho run >> "{directory / "runs"}"\nexit {exit_code}\n')
    script.chmod(0o755)
    return str(script)


def runs(directory):
    path = directory / "runs"
    return len(path.read_text().splitlines()) if path.exists() else 0


class TestCacheDirectory:
    def test_an_absolute_xdg_cache_home_holds_the_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert kernels._cache_directory() == str(tmp_path / "repro-oasis")

    @pytest.mark.parametrize("value", ["", "relcache", "./cache", "~/cache"])
    def test_an_unset_or_relative_xdg_cache_home_means_the_home_cache(
        self, monkeypatch, tmp_path, value
    ):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        expected = str(tmp_path / ".cache" / "repro-oasis")
        assert kernels._cache_directory() == expected
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert kernels._cache_directory() == expected


class TestFallback:
    def test_no_gcc_means_live(self, fresh_build, monkeypatch):
        monkeypatch.setattr(kernels, "_compiler", lambda: None)
        assert type(get_kernel()) is LiveCellKernel
        assert "compiled" not in available_kernels()
        assert not fresh_build.exists()

    def test_no_python_headers_means_live(self, fresh_build, monkeypatch, tmp_path):
        monkeypatch.setattr(kernels, "_include_directory", lambda: str(tmp_path))
        assert type(get_kernel()) is LiveCellKernel
        with pytest.raises(kernels.KernelUnavailable, match="Python.h"):
            get_kernel("compiled")

    def test_a_cache_that_cannot_be_written_means_live(
        self, fresh_build, monkeypatch, tmp_path
    ):
        # Under a regular file, so that not even root can create it.
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setattr(kernels, "_cache_directory", lambda: str(blocker / "cache"))
        assert type(get_kernel()) is LiveCellKernel
        with pytest.raises(kernels.KernelUnavailable, match="cannot create"):
            get_kernel("compiled")

    def test_a_failed_compile_means_live_and_is_not_retried(
        self, fresh_build, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(kernels, "_compiler", lambda: fake_compiler(tmp_path, 1))
        assert type(get_kernel()) is LiveCellKernel
        assert runs(tmp_path) == 1
        (marker,) = fresh_build.glob("*.failed")
        assert not [path for path in fresh_build.iterdir() if path != marker]
        # A later process -- here, the same one with its outcome forgotten --
        # reads the marker and never runs the compiler again.
        kernels._compiled_step.cache_clear()
        assert type(get_kernel()) is LiveCellKernel
        with pytest.raises(kernels.KernelUnavailable, match="earlier build failed"):
            get_kernel("compiled")
        assert runs(tmp_path) == 1

    def test_a_compiler_that_writes_nothing_loads_nothing(
        self, fresh_build, monkeypatch, tmp_path
    ):
        # Exit 0 and an empty output file: the load fails, no crash.
        monkeypatch.setattr(kernels, "_compiler", lambda: fake_compiler(tmp_path, 0))
        assert type(get_kernel()) is LiveCellKernel
        with pytest.raises(kernels.KernelUnavailable, match="cannot load"):
            get_kernel("compiled")

    def test_the_cache_directory_is_created_private(self, fresh_build, monkeypatch, tmp_path):
        monkeypatch.setattr(kernels, "_compiler", lambda: fake_compiler(tmp_path, 1))
        get_kernel()
        assert stat.S_IMODE(os.stat(fresh_build).st_mode) == 0o700

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
    def test_a_directory_others_can_write_is_never_loaded_from(
        self, fresh_build, monkeypatch, tmp_path, mode
    ):
        fresh_build.mkdir(mode=0o700)
        fresh_build.chmod(mode)
        monkeypatch.setattr(kernels, "_compiler", lambda: fake_compiler(tmp_path, 0))
        assert type(get_kernel()) is LiveCellKernel
        with pytest.raises(kernels.KernelUnavailable, match="not private"):
            get_kernel("compiled")
        assert runs(tmp_path) == 0 and not list(fresh_build.iterdir())

    def test_a_directory_another_user_owns_is_never_loaded_from(
        self, fresh_build, monkeypatch, tmp_path
    ):
        fresh_build.mkdir(mode=0o700)
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        monkeypatch.setattr(kernels, "_compiler", lambda: fake_compiler(tmp_path, 0))
        assert type(get_kernel()) is LiveCellKernel
        assert runs(tmp_path) == 0

    def test_an_explicit_compiled_kernel_is_one_error_line(
        self, fresh_build, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(kernels, "_compiler", lambda: None)
        fasta = tmp_path / "db.fasta"
        fasta.write_text(">one\nMKVLAADTGLAV\n")
        code = main(["search", "--database", str(fasta), "--query", "MKV", "--kernel", "compiled"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line == (
            "repro-oasis search: error: expansion kernel 'compiled' is unavailable: no gcc on PATH"
        )

    @needs_compiled
    def test_a_fresh_cache_builds_once_and_loads(self, fresh_build):
        assert get_kernel().name == "compiled"
        (library,) = fresh_build.iterdir()
        assert library.name.startswith("_column_step-")
        built = library.stat().st_mtime_ns
        kernels._compiled_step.cache_clear()
        assert get_kernel().name == "compiled"
        assert [path.stat().st_mtime_ns for path in fresh_build.iterdir()] == [built]
