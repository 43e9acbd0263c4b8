"""Constants, oracles and helpers the tier-1 tests share.

Test modules import these by name (``from support import ...``), as they do
the oracles next to them (``image_oracle``, ``ukkonen_oracle``,
``cursor_lookups``); fixtures stay in ``conftest.py``.  The benchmarks' own
helpers live in ``benchmarks/bench_support.py`` under another name, so a run
that collects both directories cannot shadow one with the other.
"""

from __future__ import annotations

import functools
import os
import random
import time
from typing import Sequence

from hypothesis import strategies as st

from repro.core.kernels import ExpansionKernel, available_kernels
from repro.datagen.motifs import MotifQuery, MotifWorkload
from repro.scoring.data import nucleotide_matrix, pam30
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.builder import build_disk_image
from repro.suffixtree.cursor import SuffixTreeCursor
from repro.suffixtree.generalized import GeneralizedSuffixTree

#: The sequence used throughout Section 2/3 of the paper.
PAPER_TARGET = "AGTACGCCTAG"
#: The query of the paper's worked example (Table 2, Section 3.3).
PAPER_QUERY = "TACG"

#: The production kernels that run here, each held to the ``reference``
#: oracle: ``live``, and ``compiled`` where its C step builds.
PRODUCTION_KERNELS = tuple(name for name in available_kernels() if name != "reference")

#: The bodies of ``BufferPool.page`` that run here: the Python one, and the
#: C one where the compiled step builds.
POOL_BODIES = ("python",) + (("compiled",) if "compiled" in available_kernels() else ())

AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"
BASES = "ACGT"


def random_protein(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(AMINO_ACIDS) for _ in range(length))


def random_dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(BASES) for _ in range(length))


def scaled_matrix(matrix: SubstitutionMatrix, scale: int) -> SubstitutionMatrix:
    """``matrix`` with every score between real symbols times ``scale``."""
    symbols = matrix.alphabet.symbols
    scores = {(a, b): matrix.score(a, b) * scale for a in symbols for b in symbols}
    return SubstitutionMatrix(f"{matrix.name}x{scale}", matrix.alphabet, scores)


def brute_force_local_score(
    query: str, target: str, matrix: SubstitutionMatrix, gap_penalty: int
) -> int:
    """Reference Smith-Waterman score, written as differently as possible from
    the library implementations (plain Python lists, no NumPy)."""
    m, n = len(query), len(target)
    previous = [0] * (n + 1)
    best = 0
    for i in range(1, m + 1):
        current = [0] * (n + 1)
        for j in range(1, n + 1):
            score = max(
                0,
                previous[j - 1] + matrix.score(query[i - 1], target[j - 1]),
                previous[j] + gap_penalty,
                current[j - 1] + gap_penalty,
            )
            current[j] = score
            if score > best:
                best = score
        previous = current
    return best


def dense(column, length: int):
    """A frontier column as the dense array the reference kernel would hold.

    The live-cell kernel keeps a column as its ascending ``(row, score)``
    survivors; tests compare the two kernels (and index worked examples by
    row) through this one form.  Dense columns pass through unchanged.
    """
    import numpy as np

    from repro.core.search_node import PRUNED

    if not isinstance(column, list):
        return column
    filled = np.full(length, PRUNED, dtype=np.int64)
    for row, score in column:
        filled[row] = score
    return filled


def node_signature(node, length: int):
    """Every field of a ``SearchNode`` but its tree handle, the column dense.

    What the kernel-parity tests compare between the production kernel and
    the reference, child by child.
    """
    return (
        node.state,
        node.f,
        node.b,
        node.max_score,
        node.depth,
        None if node.column is None else dense(node.column, length).tolist(),
    )


def workload_from_texts(texts: Sequence[str], name: str = "adhoc") -> MotifWorkload:
    """Wrap plain query strings into a workload object."""
    return MotifWorkload(queries=[MotifQuery(text=t) for t in texts], name=name)


class Delegating(SuffixTreeCursor):
    """A cursor that only forwards, the shape of a timing proxy."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def database(self):
        return self.inner.database

    @property
    def root(self):
        return self.inner.root

    @property
    def pool(self):
        return getattr(self.inner, "pool", None)

    def is_leaf(self, node):
        return self.inner.is_leaf(node)

    def children(self, node):
        return self.inner.children(node)

    def arc_symbols(self, node):
        return self.inner.arc_symbols(node)

    def sequences_below(self, node):
        return self.inner.sequences_below(node)

    def arc(self, node):
        return self.inner.arc(node)

    def string_depth(self, node):
        return self.inner.string_depth(node)

    def suffix_start(self, node):
        return self.inner.suffix_start(node)

    def leaf_positions(self, node):
        return self.inner.leaf_positions(node)


def python_pool_body(pool):
    """Serve ``pool``'s requests by the Python body of ``BufferPool.page``:
    drop the C body bound on the instance, leaving the class's method."""
    vars(pool).pop("page", None)
    return pool


def on_pool_body(monkeypatch, body, miss_sleep=0.0):
    """Serve the pools built from here on by ``body`` of ``BufferPool.page``.

    ``python`` is a host where the compiled step does not build: engines
    default to the ``live`` kernel, every request takes the pool lock, and
    each miss first sleeps ``miss_sleep`` seconds, outside the lock, so
    threads interleave at every miss.  ``compiled`` changes nothing: its
    misses release the GIL around their read.
    """
    if body != "python":
        return
    from repro.core import kernels
    from repro.storage.buffer_pool import BufferPool

    monkeypatch.setattr(kernels, "_compiled_step", lambda: "the Python pool body is forced")
    read_physical = BufferPool._read_physical

    def slow_read(pool, block):
        time.sleep(miss_sleep)
        return read_physical(pool, block)

    monkeypatch.setattr(BufferPool, "_read_physical", slow_read)


def on_python_frontier(kernel):
    """Make ``kernel`` search every cursor on the Python frontier over
    ``cursor.siblings``, as it does a cursor without ``node_records``: the
    compiled kernel then runs ``live``'s step instead of its C frontier."""
    kernel.frontier = functools.partial(ExpansionKernel.frontier, kernel)
    return kernel


def record_frontiers(monkeypatch, engine):
    """The frontiers ``engine``'s kernel builds in this process, as a list."""
    built = []
    frontier = engine.expansion_kernel.frontier

    def recording(*args):
        built.append(args)
        return frontier(*args)

    monkeypatch.setattr(engine.expansion_kernel, "frontier", recording)
    return built


@st.composite
def searches(draw):
    """A database, a query that is often a mutated window of it, and scoring:
    ``(database, matrix, gap, query, min_score)``."""
    if draw(st.booleans()):
        alphabet, symbols, matrix = PROTEIN_ALPHABET, AMINO_ACIDS, pam30()
        gap = draw(st.sampled_from([-1, -2, -8]))
        min_score = draw(st.integers(min_value=1, max_value=40))
        sizes = (60, 20)
    else:
        match, mismatch, gap = draw(st.sampled_from([(1, -1, -1), (1, -3, -2), (5, -4, -1)]))
        alphabet, symbols, matrix = DNA_ALPHABET, BASES, nucleotide_matrix(match, mismatch)
        min_score = draw(st.integers(min_value=1, max_value=12))
        sizes = (90, 40)
    text = st.text(alphabet=symbols, min_size=1, max_size=sizes[0])
    texts = draw(st.lists(text, min_size=1, max_size=12))
    source = draw(st.sampled_from(texts))
    start = draw(st.integers(min_value=0, max_value=len(source) - 1))
    window = list(source[start : start + draw(st.integers(min_value=1, max_value=sizes[1]))])
    for position in draw(st.lists(st.integers(0, len(window) - 1), max_size=3)):
        window[position] = draw(st.sampled_from(symbols))
    query = draw(
        st.one_of(st.just("".join(window)), st.text(symbols, min_size=1, max_size=sizes[1]))
    )
    database = SequenceDatabase.from_texts(texts, alphabet=alphabet)
    return database, matrix, gap, query, min_score


def planted(alphabet, symbols, core, seed):
    """Sequences that each hold a copy of ``core``, some with a substitution."""
    rng = random.Random(seed)

    def flank():
        return "".join(rng.choice(symbols) for _ in range(rng.randint(5, 40)))

    texts = []
    for index in range(8):
        planted_core = list(core)
        if index % 2:
            planted_core[rng.randrange(len(planted_core))] = rng.choice(symbols)
        texts.append(flank() + "".join(planted_core) + flank())
    return SequenceDatabase.from_texts(texts, alphabet=alphabet)


#: Searches for a planted core, protein and DNA: name: (database, matrix,
#: gap, query, min_score, an E-value that finds several copies).
PLANTED_SEARCHES = {
    "protein": (
        lambda: planted(PROTEIN_ALPHABET, AMINO_ACIDS, "WKDDGNGYISAAE", 3),
        pam30,
        -8,
        "WKDDGNGYISAAE",
        25,
        1_000.0,
    ),
    "dna": (
        lambda: planted(DNA_ALPHABET, BASES, "ACGTTGCATGCAAGCT", 4),
        lambda: nucleotide_matrix(5, -4),
        -4,
        "ACGTTGCATGCAAGCT",
        30,
        10.0,
    ),
}


def tree_of(form, database, tmp_path_factory):
    """The tree of ``database``: ``built``, or ``read`` back from its image
    at 256-byte blocks."""
    built = GeneralizedSuffixTree.build(database)
    if form == "built":
        return built
    path = tmp_path_factory.mktemp("image") / "tree.oasis"
    build_disk_image(built, path, block_size=256)
    return GeneralizedSuffixTree.from_image(path, database)


def pool_bytes(path, block_size, frames):
    """A pool of ``frames`` blocks of the image at ``path``, or all of it (``whole``)."""
    return os.path.getsize(path) if frames == "whole" else frames * block_size
