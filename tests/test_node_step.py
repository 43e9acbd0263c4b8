"""The compiled node step against the sibling-list steps it replaces.

``expand_node(parent, records, context)`` (``core/_column_step.c``) decodes a
node's children from the tree's record arrays and walks their arcs where
they lie in the symbol array.  On random protein and DNA databases, for the
built tree and for the tree read back from its image, every internal node a
search expands must give the entries -- numbering included -- and the three
context counters that the compiled ``expand`` and the Python
``_expand_live`` give over ``tree.siblings(node)``.  Record arrays that point
past their ends must raise ``IndexError``, never crash.  And a search must
take the node step wherever it applies, and only there.

The example budget comes from the hypothesis profile (``tests/conftest.py``):
bounded in tier-1, ``HYPOTHESIS_PROFILE=ci`` for the larger CI run.
"""

from __future__ import annotations

import copy
import random
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import OasisEngine
from repro.core.expand import ExpansionContext
from repro.core.heuristic import compute_heuristic_vector
from repro.core.kernels import _expand_live, available_kernels, get_kernel
from repro.core.search_node import VIABLE_AFTER
from repro.scoring.data import nucleotide_matrix, pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.builder import build_disk_image
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import AMINO_ACIDS, BASES

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_kernels(), reason="the compiled step does not build here"
)


def counters(context):
    return (context.nodes_enqueued, context.nodes_dropped, context.columns_expanded)


class CheckedNodeStep:
    """The compiled node step, run beside both sibling-list steps at every call."""

    def __init__(self, kernel, tree):
        self.step, self.node_step, self.tree = kernel.step, kernel.node_step, tree
        self.calls = 0

    def __call__(self, parent, records, context):
        siblings = self.tree.siblings(parent[3])
        compiled_context, python_context = copy.copy(context), copy.copy(context)
        via_compiled = self.step(parent, siblings, compiled_context)
        via_python = _expand_live(parent, siblings, python_context)
        entries = self.node_step(parent, records, context)
        assert entries == via_compiled == via_python, parent[3]
        assert counters(context) == counters(compiled_context) == counters(python_context)
        self.calls += 1
        return entries


def tree_of(form, database, tmp_path_factory):
    built = GeneralizedSuffixTree.build(database)
    if form == "built":
        return built
    path = tmp_path_factory.mktemp("image") / "tree.oasis"
    build_disk_image(built, path, block_size=256)
    return GeneralizedSuffixTree.from_image(path, database)


def checked_search(tree, matrix, gap, query, min_score):
    """One search whose every expansion is held to both sibling-list steps."""
    kernel = get_kernel("compiled")
    checked = CheckedNodeStep(kernel, tree)
    kernel.node_step = checked
    result = OasisEngine(tree, matrix, FixedGapModel(gap), kernel=kernel).search(
        query, min_score=min_score
    )
    # Every node the search expanded went through the node step.
    assert checked.calls == result.statistics.nodes_expanded
    return result, checked.calls


@st.composite
def searches(draw):
    """A database, a query that is often a mutated window of it, and scoring."""
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


@needs_compiled
@given(search=searches(), form=st.sampled_from(["built", "read"]))
def test_every_expanded_node_matches_both_sibling_steps(tmp_path_factory, search, form):
    database, matrix, gap, query, min_score = search
    checked_search(tree_of(form, database, tmp_path_factory), matrix, gap, query, min_score)


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


#: name: (database, matrix, gap, query, min_score)
CASES = {
    "protein": (
        lambda: planted(PROTEIN_ALPHABET, AMINO_ACIDS, "WKDDGNGYISAAE", 3),
        pam30,
        -8,
        "WKDDGNGYISAAE",
        25,
    ),
    "dna": (
        lambda: planted(DNA_ALPHABET, BASES, "ACGTTGCATGCAAGCT", 4),
        lambda: nucleotide_matrix(5, -4),
        -4,
        "ACGTTGCATGCAAGCT",
        30,
    ),
}


@needs_compiled
@pytest.mark.parametrize("form", ["built", "read"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_planted_search_matches_both_sibling_steps(tmp_path_factory, case, form):
    make_database, make_matrix, gap, query, min_score = CASES[case]
    database = make_database()
    tree = tree_of(form, database, tmp_path_factory)
    result, calls = checked_search(tree, make_matrix(), gap, query, min_score)
    assert calls > 1 and len(result) >= 4
    expected = OasisEngine(tree, make_matrix(), FixedGapModel(gap), kernel="live").search(
        query, min_score=min_score
    )
    assert [(hit.sequence_index, hit.score) for hit in result] == [
        (hit.sequence_index, hit.score) for hit in expected
    ]


# --------------------------------------------------------------------- #
# Which path a search takes
# --------------------------------------------------------------------- #
@needs_compiled
@pytest.mark.parametrize("form", ["built", "read"])
def test_an_engine_over_record_arrays_takes_the_node_step(tmp_path_factory, monkeypatch, form):
    make_database, make_matrix, gap, query, min_score = CASES["protein"]
    tree = tree_of(form, make_database(), tmp_path_factory)

    def no_siblings(node):
        raise AssertionError("siblings() was called")

    monkeypatch.setattr(tree, "siblings", no_siblings)
    engine = OasisEngine(tree, make_matrix(), FixedGapModel(gap), kernel="compiled")
    assert len(engine.search(query, min_score=min_score)) >= 4


@pytest.mark.parametrize(
    "kernel, switches",
    [("live", {}), ("reference", {}), ("compiled", {"prune_dominated": False})],
    ids=["live", "reference", "compiled-dense"],
)
def test_other_kernels_and_dense_columns_read_sibling_lists(kernel, switches):
    if kernel not in available_kernels():
        pytest.skip("the compiled step does not build here")
    make_database, make_matrix, gap, query, min_score = CASES["protein"]
    tree = GeneralizedSuffixTree.build(make_database())
    calls = []
    siblings = tree.siblings
    tree.siblings = lambda node: calls.append(node) or siblings(node)
    engine = OasisEngine(tree, make_matrix(), FixedGapModel(gap), kernel=kernel, **switches)
    result = engine.search(query, min_score=min_score)
    assert len(calls) == result.statistics.nodes_expanded > 1


# --------------------------------------------------------------------- #
# Hostile records
# --------------------------------------------------------------------- #
QUERY = "ACGTACGT"
MATRIX = nucleotide_matrix(5, -4)


def context_for(query=QUERY):
    codes = DNA_ALPHABET.encode(query)
    return ExpansionContext(
        query_codes=codes,
        score_rows=MATRIX.rows,
        gap_penalty=-1,
        heuristic=compute_heuristic_vector(codes, MATRIX),
        min_score=5,
    )


@pytest.fixture
def small_tree():
    database = SequenceDatabase.from_texts(
        ["ACGTACGTTA", "GGACGTAC", "TTACG"], alphabet=DNA_ALPHABET
    )
    return GeneralizedSuffixTree.build(database)


def entry_at(tree, node, context):
    """A frontier entry for internal ``node`` seeded with the root column."""
    return (-max(context.heuristic), VIABLE_AFTER, 0, node, context.make_root_cells(), 0, node[4])


def with_leaves(tree):
    """An internal node with a run of leaves."""
    pending = [tree.root]
    while pending:
        node = pending.pop()
        children = tree.children(node)
        if any(tree.is_leaf(child) for child in children):
            return node
        pending.extend(child for child in children if not tree.is_leaf(child))
    raise AssertionError("no internal node has a leaf")


def hostile(tree, name):
    """``tree.node_records`` broken one way, and the node to expand."""
    internal, leaves, codes, ends = tree.node_records
    internal, leaves = array("I", internal), array("I", leaves)
    root = tree.root
    if name == "child-pointer":
        internal[2] = len(internal) // 4
        return (internal, leaves, codes, ends), root
    if name == "child-run":
        # The last internal record's run never ends: it runs off the array.
        last = len(internal) // 4 - 1
        internal[4 * last] &= 0x7FFFFFFF
        parent = next(
            node
            for node in internal_nodes(tree)
            if ("I", last) in {child[:2] for child in tree.children(node)}
        )
        return (internal, leaves, codes, ends), parent
    node = with_leaves(tree)
    if name == "leaf-index":
        internal[4 * node[1] + 3] = len(leaves)
    elif name == "arc-end":
        child = next(c for c in tree.children(tree.root) if c[0] == "I")
        internal[4 * child[1] + 1] = len(codes)
        node = root
    elif name == "short-codes":
        codes = codes[:1]
    elif name == "suffix-past-the-ends":
        ends = array("I", [0])
    return (internal, leaves, codes, ends), node


def internal_nodes(tree):
    pending, found = [tree.root], []
    while pending:
        node = pending.pop()
        found.append(node)
        pending.extend(child for child in tree.children(node) if not tree.is_leaf(child))
    return found


@needs_compiled
@pytest.mark.parametrize(
    "name",
    ["child-pointer", "child-run", "leaf-index", "arc-end", "short-codes", "suffix-past-the-ends"],
)
def test_records_that_point_past_their_arrays_are_an_index_error(small_tree, name):
    records, node = hostile(small_tree, name)
    context = context_for()
    before = counters(context)
    with pytest.raises(IndexError):
        get_kernel("compiled").node_step(entry_at(small_tree, node, context), records, context)
    assert counters(context) == before


@needs_compiled
def test_a_node_index_past_the_records_is_an_index_error(small_tree):
    context = context_for()
    node = ("I", small_tree.internal_node_count, 0, 0, 0)
    with pytest.raises(IndexError):
        get_kernel("compiled").node_step(
            entry_at(small_tree, node, context), small_tree.node_records, context
        )


@needs_compiled
def test_a_leaf_has_no_children(small_tree):
    context = context_for()
    leaf = next(child for child in small_tree.children(with_leaves(small_tree)) if child[0] == "L")
    entry = entry_at(small_tree, leaf, context)
    assert get_kernel("compiled").node_step(entry, small_tree.node_records, context) == []
    assert counters(context) == (0, 0, 0)


@needs_compiled
@pytest.mark.parametrize(
    "records",
    [
        pytest.param(lambda r: list(r), id="list"),
        pytest.param(lambda r: r[:3], id="three"),
        pytest.param(lambda r: (array("q", r[0]),) + r[1:], id="int64-records"),
        pytest.param(lambda r: (r[0], r[1], list(r[2]), r[3]), id="codes-list"),
        pytest.param(lambda r: r[:3] + (list(r[3]),), id="ends-list"),
    ],
)
def test_records_of_the_wrong_shape_are_a_type_error(small_tree, records):
    context = context_for()
    entry = entry_at(small_tree, small_tree.root, context)
    with pytest.raises(TypeError):
        get_kernel("compiled").node_step(entry, records(small_tree.node_records), context)
    assert counters(context) == (0, 0, 0)
