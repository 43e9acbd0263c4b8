"""Unit tests for the arc expansion (Algorithm 3) and its pruning rules.

Every case runs under both forms of the walk: the live-cell production
kernel (``live``; the compiled kernel expands an arc with the same Python)
and the dense reference, each on a root in the column form it expands.  A
pruning rule switched off is a :class:`ReferenceKernel` of its own.
"""

import pytest

from repro.core.expand import ExpansionContext
from repro.core.heuristic import compute_heuristic_vector
from repro.core.kernels import ReferenceKernel, get_kernel
from repro.core.search_node import NodeState, PRUNED, SearchNode
from repro.scoring.data import unit_matrix
from repro.sequences.alphabet import DNA_ALPHABET
from support import dense

MATRIX = unit_matrix(DNA_ALPHABET)


@pytest.fixture(params=["reference", "live"])
def expand_arc(request):
    return get_kernel(request.param).expand_arc


def make_context(query_text, min_score=1, **kwargs):
    codes = DNA_ALPHABET.encode(query_text)
    return ExpansionContext(
        query_codes=codes,
        score_rows=MATRIX.rows,
        gap_penalty=-1,
        heuristic=compute_heuristic_vector(codes, MATRIX),
        min_score=min_score,
        **kwargs,
    )


def make_root(context, expand_arc):
    """The root in the column form ``expand_arc``'s kernel expands: the
    reference's dense array, or a live-cell kernel's ``(row, score)`` list."""
    if isinstance(expand_arc.__self__, ReferenceKernel):
        column = context.make_root_column()
    else:
        column = context.make_root_cells()
    return SearchNode(
        tree_node=None,
        column=column,
        max_score=0,
        f=max(context.heuristic),
        b=0,
        state=NodeState.VIABLE,
        depth=0,
    )


class TestExpansionContext:
    def test_root_column_zeros(self):
        context = make_context("TACG", min_score=1)
        assert context.make_root_column().tolist() == [0, 0, 0, 0, PRUNED]

    def test_root_column_prunes_hopeless_entries(self):
        # With min_score=3 only the entries with at least 3 symbols left survive.
        context = make_context("TACG", min_score=3)
        assert context.make_root_column().tolist() == [0, 0, PRUNED, PRUNED, PRUNED]

    def test_invalid_min_score(self):
        with pytest.raises(ValueError):
            make_context("TACG", min_score=0)

    def test_invalid_gap(self):
        codes = DNA_ALPHABET.encode("TA")
        with pytest.raises(ValueError):
            ExpansionContext(codes, MATRIX.rows, 0, compute_heuristic_vector(codes, MATRIX), 1)


class TestExpandArc:
    """Columns are checked against the worked example of Section 3.3."""

    def test_expanding_node_1n(self, expand_arc):
        # Node 1N: arc "A" from the root, query TACG, minScore 1.
        context = make_context("TACG", min_score=1)
        root = make_root(context, expand_arc)
        node = expand_arc(root, "1N", DNA_ALPHABET.encode("A"), is_leaf=False, context=context)
        assert node.state is NodeState.VIABLE
        # Column from the paper: [-1 pruned, -1 pruned, 1, 0 pruned, -1 pruned]
        assert dense(node.column, 5).tolist() == [PRUNED, PRUNED, 1, PRUNED, PRUNED]
        assert node.f == 3  # paper: f = 3 for node 1N
        assert node.b == 1
        assert node.max_score == 1
        assert node.depth == 1

    def test_expanding_node_4n(self, expand_arc):
        # Node 4N: arc "TA", paper reports f = 4, best alignment so far 2.
        context = make_context("TACG", min_score=1)
        root = make_root(context, expand_arc)
        node = expand_arc(root, "4N", DNA_ALPHABET.encode("TA"), is_leaf=False, context=context)
        assert node.state is NodeState.VIABLE
        assert node.f == 4
        assert node.max_score == 2
        assert dense(node.column, 5)[2] == 2  # alignment TA <-> TA

    def test_columns_expanded_counted(self, expand_arc):
        context = make_context("TACG")
        root = make_root(context, expand_arc)
        expand_arc(root, None, DNA_ALPHABET.encode("TA"), is_leaf=False, context=context)
        assert context.columns_expanded == 2

    def test_leaf_arc_returns_accepted_when_above_threshold(self, expand_arc):
        context = make_context("TACG", min_score=1)
        root = make_root(context, expand_arc)
        # Simulate leaf 2L: the arc continues ACGCCTAG$ after path TA.
        node_4n = expand_arc(root, "4N", DNA_ALPHABET.encode("TA"), is_leaf=False, context=context)
        leaf = expand_arc(
            node_4n, "2L", DNA_ALPHABET.encode("CGCCTAG$"), is_leaf=True, context=context
        )
        assert leaf.state is NodeState.ACCEPTED
        assert leaf.max_score == 4  # the full TACG match
        assert leaf.f == 4
        assert leaf.column is None  # accepted nodes drop their column

    def test_unviable_when_threshold_unreachable(self, expand_arc):
        context = make_context("TACG", min_score=4)
        root = make_root(context, expand_arc)
        # A path of mismatching symbols can never reach a score of 4.
        node = expand_arc(root, None, DNA_ALPHABET.encode("GGGGG"), is_leaf=False, context=context)
        assert node.state is NodeState.UNVIABLE

    def test_early_termination_stops_column_expansion(self, expand_arc):
        context = make_context("TACG", min_score=1)
        root = make_root(context, expand_arc)
        # After the query is fully matched, further symbols cannot improve the
        # alignment, so the expansion stops before consuming the whole arc.
        long_arc = DNA_ALPHABET.encode("TACG" + "T" * 50)
        expand_arc(root, None, long_arc, is_leaf=False, context=context)
        assert context.columns_expanded < 20

    def test_expanding_accepted_node_column_is_error(self, expand_arc):
        context = make_context("TACG")
        accepted = SearchNode(None, None, 4, 4, 4, NodeState.ACCEPTED, depth=3)
        with pytest.raises(ValueError):
            expand_arc(accepted, None, DNA_ALPHABET.encode("A"), is_leaf=False, context=context)

    def test_terminal_symbol_kills_alignments(self, expand_arc):
        context = make_context("TACG", min_score=1)
        root = make_root(context, expand_arc)
        node = expand_arc(
            root, None, bytes([DNA_ALPHABET.terminal_code]), is_leaf=True, context=context
        )
        # Nothing can align across a terminal; no alignment was found.
        assert node.state is NodeState.UNVIABLE


class TestPruningRules:
    def test_disabling_rules_never_changes_scores(self, expand_arc):
        # With pruning rules individually disabled, the max_score reached on a
        # fully-expanded path must be identical.
        arc = DNA_ALPHABET.encode("TAACG")
        results = []
        for expand in [
            expand_arc,
            ReferenceKernel(prune_dominated=False).expand_arc,
            ReferenceKernel(prune_threshold=False).expand_arc,
            ReferenceKernel(prune_dominated=False, prune_threshold=False).expand_arc,
        ]:
            context = make_context("TACG", min_score=1)
            root = make_root(context, expand)
            node = expand(root, None, arc, is_leaf=False, context=context)
            results.append(node.max_score)
        assert len(set(results)) == 1

    def test_disabled_pruning_expands_at_least_as_many_columns(self, expand_arc):
        arc = DNA_ALPHABET.encode("TAACGGTTACCAGT")
        full = make_context("TACG", min_score=3)
        expand_arc(make_root(full, expand_arc), None, arc, is_leaf=False, context=full)
        relaxed = make_context("TACG", min_score=3)
        expand = ReferenceKernel(prune_threshold=False, prune_dominated=False).expand_arc
        expand(make_root(relaxed, expand), None, arc, is_leaf=False, context=relaxed)
        assert relaxed.columns_expanded >= full.columns_expanded
