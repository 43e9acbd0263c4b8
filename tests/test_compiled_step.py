"""The compiled column step: the rules it shares with the Python walk, and
how it is built, cached and given up on.

Parity with the oracle lives with the other kernels'
(``tests/test_kernel_parity.py``, ``tests/test_fused_step.py``, both
parametrized over every kernel that runs here).  The cases here are what C
adds: malformed arguments must raise, never crash the process, and a host
that cannot build the step must fall back to ``live`` -- or, when
``compiled`` is asked for by name, say why in one line.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.cli import main
from repro.core import kernels
from repro.core.expand import ExpansionContext
from repro.core.heuristic import compute_heuristic_vector
from repro.core.kernels import LiveCellKernel, available_kernels, get_kernel
from repro.core.search_node import VIABLE_AFTER
from repro.scoring.data import nucleotide_matrix
from repro.sequences.alphabet import DNA_ALPHABET
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
        heuristic=compute_heuristic_vector(codes, MATRIX),
        min_score=min_score,
    )


def root(context, column=None):
    cells = context.make_root_cells() if column is None else column
    return (-max(context.heuristic), VIABLE_AFTER, 0, "root", cells, 0, 0)


def counters(context):
    return (context.nodes_enqueued, context.nodes_dropped, context.columns_expanded)


ARC = DNA_ALPHABET.encode("ACG")


class Truthless:
    """An ``is_leaf`` whose truth value cannot be taken."""

    def __bool__(self):
        raise RuntimeError("no truth value")


@needs_compiled
class TestTheRulesOfTheWalk:
    """Through ``get_kernel("compiled")``: what the C step does with bad input."""

    @pytest.mark.parametrize(
        "arguments",
        [
            pytest.param(
                lambda c: (root(c), iter([("n", ARC, False)]), c), id="siblings-iterator"
            ),
            pytest.param(
                lambda c: ({4: c.make_root_cells()}, [("n", ARC, False)], c), id="parent-dict"
            ),
            pytest.param(lambda c: (root(c, {(0, 0)}), [("n", ARC, False)], c), id="column-set"),
            pytest.param(lambda c: (root(c, [0, 1]), [("n", ARC, False)], c), id="cell-int"),
            pytest.param(lambda c: (root(c, [(0, 0.5)]), [("n", ARC, False)], c), id="score-float"),
            pytest.param(lambda c: (root(c), ["nAC"], c), id="sibling-str"),
            pytest.param(lambda c: (root(c), [("n", list(ARC), False)], c), id="arc-list"),
            pytest.param(lambda c: (root(c), [("n", ARC, False)], c, ()), id="arc-bests-tuple"),
        ],
    )
    def test_a_non_list_or_tuple_argument_is_a_type_error(self, arguments):
        context = make_context()
        before = counters(context)
        with pytest.raises(TypeError):
            get_kernel("compiled").step(*arguments(context))
        assert counters(context) == before

    @pytest.mark.parametrize("packed", ["packed_heuristic", "packed_profile"])
    def test_a_packed_table_that_is_not_int64_bytes_is_a_type_error(self, packed):
        context = make_context()
        setattr(context, packed, list(getattr(context, packed)))
        with pytest.raises(TypeError, match=packed):
            get_kernel("compiled").expand_children(root(context), [("n", ARC, False)], context)
        setattr(context, packed, getattr(make_context(), packed)[:-1])
        with pytest.raises(TypeError, match=packed):
            get_kernel("compiled").expand_children(root(context), [("n", ARC, False)], context)

    def test_a_profile_of_another_query_length_is_a_value_error(self):
        context = make_context()
        context.packed_profile = make_context(QUERY + "A").packed_profile
        with pytest.raises(ValueError, match="m rows of one score per symbol"):
            get_kernel("compiled").expand_children(root(context), [("n", ARC, False)], context)

    @pytest.mark.parametrize("kernel", PRODUCTION_KERNELS)
    def test_a_symbol_past_the_alphabet_is_an_index_error(self, kernel):
        context = make_context()
        arc = bytes([len(context.profile_rows)])
        with pytest.raises(IndexError):
            get_kernel(kernel).expand_children(root(context), [("n", arc, False)], context)

    @pytest.mark.parametrize("kernel", PRODUCTION_KERNELS)
    def test_a_live_row_at_m_is_an_index_error(self, kernel):
        # Row m has no substitution score: a finished column never holds it.
        context = make_context()
        column = [(len(QUERY), 40)]
        with pytest.raises(IndexError):
            get_kernel(kernel).expand_children(root(context, column), [("n", ARC, False)], context)

    def test_a_negative_row_is_an_index_error(self):
        context = make_context()
        with pytest.raises(IndexError):
            get_kernel("compiled").step(root(context, [(-1, 40)]), [("n", ARC, False)], context)

    def test_rows_out_of_order_are_a_value_error(self):
        context = make_context()
        column = [(3, 20), (1, 20)]
        with pytest.raises(ValueError, match="ascend"):
            get_kernel("compiled").step(root(context, column), [("n", ARC, False)], context)

    @pytest.mark.parametrize("score", [2**62 + 1, 2**70, -(2**63)])
    def test_a_score_past_two_to_the_62_is_an_overflow_error(self, score):
        # Python ints never overflow; the C step refuses what an int64 sum
        # could not hold rather than wrap.
        context = make_context()
        with pytest.raises(OverflowError):
            get_kernel("compiled").step(root(context, [(0, score)]), [("n", ARC, False)], context)

    @pytest.mark.parametrize("kernel", PRODUCTION_KERNELS)
    def test_an_error_from_is_leaf_propagates(self, kernel):
        context = make_context()
        with pytest.raises(RuntimeError, match="no truth value"):
            get_kernel(kernel).expand_children(root(context), [("n", ARC, Truthless())], context)

    def test_a_call_made_inside_a_call_keeps_its_own_scratch(self):
        # An ``is_leaf`` that runs another expansion before it answers: with
        # buffers shared between calls, the inner one would overwrite the
        # outer one's seed and columns.
        compiled = get_kernel("compiled")
        python = LiveCellKernel()

        def siblings(leaf):
            return [(code, bytes([code]) + ARC, leaf) for code in range(4)]

        def outcome(kernel):
            outer, inner = make_context(), make_context("TTGACA", min_score=6)

            class Reentrant:
                def __bool__(self):
                    kernel.expand_children(root(inner), siblings(False), inner)
                    return False

            entries = kernel.expand_children(root(outer), siblings(Reentrant()), outer)
            return entries, counters(outer), counters(inner)

        expected = outcome(python)
        assert expected[0] and expected[2][2] > 0
        assert outcome(compiled) == expected


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
