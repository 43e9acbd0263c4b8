"""The fused live-cell column step, against the dense reference column.

``tests/test_kernel_parity.py`` holds the production kernel to the oracle
over whole searches and whole trees.  The cases here aim at the two places
where the one-walk step differs from a prune-after-the-maximum step: a
column whose strongest cell raises the cutoff *after* cells above it were
admitted under the lower limit, and a cell that lives in row ``m`` for the
rest of such a walk.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import OasisEngine
from repro.core.expand import ExpansionContext
from repro.core.heuristic import compute_heuristic_vector
from repro.core.kernels import LiveCellKernel, ReferenceKernel, get_kernel
from repro.core.search_node import NodeState, SearchNode
from repro.scoring.data import nucleotide_matrix, pam30, unit_matrix
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import AMINO_ACIDS, PRODUCTION_KERNELS, node_signature

LIVE = LiveCellKernel()
REFERENCE = ReferenceKernel()


@pytest.fixture(params=["live"], scope="module")
def kernel(request):
    """The live-cell kernel, held to the reference: the compiled kernel
    expands an arc with the same Python, and searches with its C frontier
    (``TestVerbatimQuery`` runs both)."""
    return get_kernel(request.param)


def make_context(alphabet, matrix, query, gap, min_score):
    codes = alphabet.encode(query)
    return ExpansionContext(
        query_codes=codes,
        score_rows=matrix.rows,
        gap_penalty=gap,
        heuristic=compute_heuristic_vector(codes, matrix),
        min_score=min_score,
    )


def viable(context, cells, max_score, column):
    bound = max(score + int(context.heuristic[row]) for row, score in cells)
    return SearchNode(None, column, max_score, bound, max_score, NodeState.VIABLE, depth=4)


def both_steps(kernel, context, cells, max_score, arc, is_leaf=False):
    """``arc`` below the same node, by the fused walk and by the dense form."""
    live = kernel.expand_arc(viable(context, cells, max_score, list(cells)), "child", arc, is_leaf, context)
    columns = context.columns_expanded
    reference = REFERENCE.expand_arc(
        viable(context, cells, max_score, context.dense_column(cells)), "child", arc, is_leaf, context
    )
    assert context.columns_expanded == 2 * columns
    return live, reference


class TestCutoffRisesMidColumn:
    """Query ACGTACGT, +5/-4, gap -1: ``h[i] = 5 * (8 - i)``."""

    CELLS = [(2, 4), (5, 25), (7, 30)]

    def context(self):
        return make_context(DNA_ALPHABET, nucleotide_matrix(5, -4), "ACGTACGT", -1, 10)

    def test_first_pass_survivors_fall_under_the_new_limit(self, kernel):
        # Path maximum 30, target symbol T.  Under the limit for cutoff 30 the
        # walk admits (2, 3), (5, 24), (6, 23) -- the chain from row 5 beats
        # the diagonal 21 --, (7, 29) and the diagonal of (7, 30): (8, 35), a
        # new path maximum in row m.  Cutoff 35 then leaves 24 + h[5] = 39
        # alone above it: 3 + 30, 23 + 10, 29 + 5 and 35 + 0 are not.
        context = self.context()
        requested = []
        limit_for = context.limit_for
        context.limit_for = lambda cutoff: requested.append(cutoff) or limit_for(cutoff)
        first_pass = [
            (row, value)
            for row, value in [(2, 3), (5, 24), (6, 23), (7, 29), (8, 35)]
            if value > limit_for(30)[row]
        ]
        assert len(first_pass) == 5

        live, reference = both_steps(kernel, context, self.CELLS, 30, DNA_ALPHABET.encode("T"))
        assert live.column == [(5, 24)]
        assert (live.state, live.max_score, live.f, live.b) == (NodeState.VIABLE, 35, 39, 35)
        assert node_signature(live, 9) == node_signature(reference, 9)
        assert requested == [30, 35]

    def test_the_walk_needs_the_sentinel_row(self):
        # (8, 35) is admitted under the earlier limit and its chain looks at
        # row 9: the limit lists close with a row that stops it.  (The
        # C frontier has the same row, computed, not listed.)
        context = self.context()
        limit_for = context.limit_for
        assert len(limit_for(30)) == 8 + 2
        context.limit_for = lambda cutoff: limit_for(cutoff)[:-1]
        with pytest.raises(IndexError):
            both_steps(LIVE, context, self.CELLS, 30, DNA_ALPHABET.encode("T"))

    def test_a_leaf_ends_accepted_either_way(self, kernel):
        live, reference = both_steps(
            kernel,
            self.context(), self.CELLS, 30, DNA_ALPHABET.encode("T"), is_leaf=True
        )
        assert live.state is NodeState.ACCEPTED and live.column is None
        assert node_signature(live, 9) == node_signature(reference, 9)


@pytest.mark.parametrize("kernel", PRODUCTION_KERNELS, indirect=True)
class TestVerbatimQuery:
    """A query that occurs in the database: the full match is a new path
    maximum that arrives in row ``m``."""

    @pytest.mark.parametrize(
        "alphabet, matrix, gap, texts, query",
        [
            (DNA_ALPHABET, unit_matrix(DNA_ALPHABET), -1, ["AGTACGCCTAG", "CCTACGA"], "TACG"),
            (DNA_ALPHABET, nucleotide_matrix(1, -3), -4, ["GGATTACAGG", "TTGATTACA"], "GATTACA"),
            (
                PROTEIN_ALPHABET,
                pam30(),
                -8,
                ["MKWVTFISLLFLFSSAYS", "AAWVTFISLL", "WVTFIS"],
                "WVTFISLL",
            ),
        ],
        ids=["paper", "dna", "protein"],
    )
    def test_every_node_equals_the_reference(
        self, alphabet, matrix, gap, texts, query, monkeypatch, kernel
    ):
        database = SequenceDatabase.from_texts(texts, alphabet=alphabet)
        cursor = GeneralizedSuffixTree.build(database)
        perfect = sum(matrix.rows[code][code] for code in alphabet.encode(query))

        # The case is the one meant: without the sentinel row the search
        # runs off the limit list.
        with monkeypatch.context() as patch:
            limit_for = ExpansionContext.limit_for
            patch.setattr(
                ExpansionContext, "limit_for", lambda self, cutoff: limit_for(self, cutoff)[:-1]
            )
            with pytest.raises(IndexError):
                OasisEngine(cursor, matrix, FixedGapModel(gap), kernel=LIVE).search(
                    query, min_score=max(1, perfect // 2)
                )

        results = {}
        for each in (kernel, REFERENCE):
            result = OasisEngine(cursor, matrix, FixedGapModel(gap), kernel=each).search(
                query, min_score=max(1, perfect // 2)
            )
            counters = result.statistics.as_dict()
            del counters["elapsed_seconds"], counters["kernel"]
            results[each.name] = ([(hit.sequence_index, hit.score) for hit in result], counters)
        assert results[kernel.name] == results["reference"]
        assert results[kernel.name][0][0][1] == perfect

        # Node by node down the path the query spells: the child in which
        # the match completes is finished, with the perfect score.
        context = make_context(alphabet, matrix, query, gap, max(1, perfect // 2))
        length = len(query) + 1
        live_node = SearchNode(cursor.root, context.make_root_cells(), 0, perfect, 0, NodeState.VIABLE)
        reference_node = SearchNode(
            cursor.root, context.make_root_column(), 0, perfect, 0, NodeState.VIABLE
        )
        remaining = [int(code) for code in alphabet.encode(query)]
        completed = False
        while remaining and live_node.state is NodeState.VIABLE:
            (child,) = [
                c for c in cursor.children(live_node.tree_node)
                if cursor.arc_symbols(c)[0] == remaining[0]
            ]
            sibling = (child, cursor.arc_symbols(child), cursor.is_leaf(child))
            live_node = kernel.expand_arc(live_node, *sibling, context)
            reference_node = REFERENCE.expand_arc(reference_node, *sibling, context)
            assert node_signature(live_node, length) == node_signature(reference_node, length)
            remaining = remaining[len(sibling[1]):]
            completed = completed or live_node.max_score == perfect
        assert completed


class TestFusedStepProperty:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        query=st.text(alphabet=AMINO_ACIDS, min_size=2, max_size=12),
        arc=st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=3),
        gap=st.sampled_from([-1, -2, -8]),
        min_score=st.integers(min_value=1, max_value=45),
        max_score=st.integers(min_value=0, max_value=60),
        is_leaf=st.booleans(),
        data=st.data(),
    )
    def test_one_walk_equals_one_dense_column(
        self, kernel, query, arc, gap, min_score, max_score, is_leaf, data
    ):
        # Any column a path can hold: cells in rows below m (a finished
        # column has none in row m), no score above the path's maximum.
        rows = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(query) - 1),
                min_size=1, max_size=len(query), unique=True,
            )
        )
        cells = [
            (row, data.draw(st.integers(min_value=0, max_value=max_score)))
            for row in sorted(rows)
        ]
        context = make_context(PROTEIN_ALPHABET, pam30(), query, gap, min_score)
        live, reference = both_steps(
            kernel, context, cells, max_score, PROTEIN_ALPHABET.encode(arc), is_leaf
        )
        assert node_signature(live, len(query) + 1) == node_signature(reference, len(query) + 1)
        if live.column is not None:
            assert isinstance(live.column, list) and isinstance(reference.column, np.ndarray)
            assert live.column == sorted(live.column) and live.column[-1][0] < len(query)
