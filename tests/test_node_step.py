"""The compiled node step against the sibling-list steps it replaces.

``expand_node(records, parent, context)`` (``core/_column_step.c``) decodes a
node's children from ``cursor.node_records`` and walks their arcs where they
lie: the record arrays of the in-memory tree, or the disk cursor's page
source, whose pages it asks of the buffer pool.  On random protein and DNA
databases -- the built tree, the tree read back from its image, and the disk
cursor at block sizes where runs and arcs straddle pages, over pools of one
frame, two frames and the whole image -- every internal node a search
expands, driven through the Python frontier over the node step
(``repro.core.frontier.PythonFrontier``; ``tests/test_frontier.py`` holds
the C frontier to it), must give the entries (numbering included) and the
three context counters that the compiled ``expand`` and the Python
``_expand_live`` give over ``siblings(node)``; on the disk, after every
call, the pool's counters, frames, hand and reference bits must equal a
twin cursor's that served ``siblings()`` through the Python body of
``BufferPool.page``.
Records that point past their regions must raise ``IndexError``, never
crash, from the page step and from ``DiskSuffixTree.siblings`` alike.  And a
search must take the compiled frontier wherever it applies, and only there.

The example budget comes from the hypothesis profile (``tests/conftest.py``):
bounded in tier-1, ``HYPOTHESIS_PROFILE=ci`` for the larger CI run.
"""

from __future__ import annotations

import copy
import struct
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.core import kernels
from repro.core.engine import OasisEngine
from repro.core.expand import ExpansionContext, expand_arc_reference
from repro.core.heuristic import compute_heuristic_vector
from repro.core.kernels import ReferenceKernel, _expand_live, available_kernels, get_kernel
from repro.core.search_node import VIABLE_AFTER
from repro.scoring.data import nucleotide_matrix, pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.buffer_pool import HAND
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.storage.layout import DiskLayout, Region
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import (
    PLANTED_SEARCHES,
    on_python_frontier,
    pool_bytes,
    python_pool_body,
    searches,
    tree_of,
)

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_kernels(), reason="the compiled step does not build here"
)


def counters(context):
    return (context.nodes_enqueued, context.nodes_dropped, context.columns_expanded)


def pool_counters(tree):
    statistics = tree.pool.statistics
    return (
        statistics.hits,
        statistics.misses,
        statistics.evictions,
        list(statistics.per_region_hits),
        list(statistics.per_region_misses),
    )


def pool_state(tree):
    """What a pool holds: its counters, its frames in clock order, its hand,
    its reference bits."""
    pool = tree.pool
    return pool_counters(tree), list(pool.blocks), pool.counters[HAND], bytes(pool.referenced)


class CheckedNodeStep:
    """The compiled node step, run beside both sibling-list steps at every call.

    ``twin`` serves the sibling lists: the tree itself in memory, or on disk a
    second cursor over the same image and pool size, whose pool must then
    match the searched cursor's after every call, frame for frame.
    """

    def __init__(self, kernel, twin, disk=None):
        self.step, self.node_step = kernel.step, kernel.node_step
        self.twin, self.disk = twin, disk
        self.calls = 0

    def __call__(self, records, parent, context):
        siblings = self.twin.siblings(parent[3])
        compiled_context, python_context = copy.copy(context), copy.copy(context)
        via_compiled = self.step(parent, siblings, compiled_context)
        via_python = _expand_live(parent, siblings, python_context)
        entries = self.node_step(records, parent, context)
        assert entries == via_compiled == via_python, parent[3]
        assert counters(context) == counters(compiled_context) == counters(python_context)
        if self.disk is not None:
            assert pool_state(self.disk) == pool_state(self.twin), parent[3]
        self.calls += 1
        return entries


def checked_search(tree, matrix, gap, query, min_score):
    """One search on the Python frontier whose every expansion is held to
    both sibling-list steps."""
    kernel = get_kernel("compiled")
    checked = CheckedNodeStep(kernel, tree)
    on_python_frontier(kernel, checked)
    result = OasisEngine(tree, matrix, FixedGapModel(gap), kernel=kernel).search(
        query, min_score=min_score
    )
    # Every node the search expanded went through the node step.
    assert checked.calls == result.statistics.nodes_expanded
    return result, checked.calls


def no_siblings(node):
    raise AssertionError("siblings() was called")


def disk_pair(path, database, block_size, frames):
    """Two cursors over one image, each with a pool of ``frames`` frames; the
    twin's pool serves its requests by the Python body of ``BufferPool.page``."""
    budget = pool_bytes(path, block_size, frames)
    disk = DiskSuffixTree(path, database, buffer_pool_bytes=budget)
    twin = DiskSuffixTree(path, database, buffer_pool_bytes=budget)
    python_pool_body(twin.pool)
    return disk, twin


def checked_disk_search(path, database, block_size, frames, matrix, gap, query, min_score):
    """One search of the disk cursor, every expansion through the page step and
    held to both sibling-list steps over a twin cursor, pool for pool."""
    disk, twin = disk_pair(path, database, block_size, frames)
    sequences_below = disk.sequences_below

    def in_step(node):
        # An accepted node's leaves are read through both pools, to keep
        # them in step.
        below = sequences_below(node)
        assert twin.sequences_below(node) == below
        return below

    try:
        disk.siblings = no_siblings
        disk.sequences_below = in_step
        kernel = get_kernel("compiled")
        checked = CheckedNodeStep(kernel, twin, disk)
        on_python_frontier(kernel, checked)
        result = OasisEngine(disk, matrix, FixedGapModel(gap), kernel=kernel).search(
            query, min_score=min_score
        )
        assert checked.calls == result.statistics.nodes_expanded
        assert pool_state(disk) == pool_state(twin)
        assert disk.pool.slot_of == twin.pool.slot_of
        return result, checked.calls
    finally:
        disk.close()
        twin.close()


@needs_compiled
@given(search=searches(), form=st.sampled_from(["built", "read"]))
def test_every_expanded_node_matches_both_sibling_steps(tmp_path_factory, search, form):
    database, matrix, gap, query, min_score = search
    checked_search(tree_of(form, database, tmp_path_factory), matrix, gap, query, min_score)


@needs_compiled
@given(
    search=searches(),
    block_size=st.sampled_from([72, 256, 2048]),
    frames=st.sampled_from([1, 2, "whole"]),
)
def test_every_node_the_page_step_expands_matches_both_sibling_steps(
    tmp_path_factory, search, block_size, frames
):
    database, matrix, gap, query, min_score = search
    path = tmp_path_factory.mktemp("image") / "tree.oasis"
    build_disk_image(GeneralizedSuffixTree.build(database), path, block_size=block_size)
    checked_disk_search(path, database, block_size, frames, matrix, gap, query, min_score)


#: name: (database, matrix, gap, query, min_score)
CASES = {name: search[:5] for name, search in PLANTED_SEARCHES.items()}


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


@needs_compiled
@pytest.mark.parametrize("frames", [1, 2, "whole"])
@pytest.mark.parametrize("block_size", [72, 256, 2048])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_planted_disk_search_matches_both_sibling_steps(tmp_path, case, block_size, frames):
    make_database, make_matrix, gap, query, min_score = CASES[case]
    database = make_database()
    path = tmp_path / "tree.oasis"
    build_disk_image(GeneralizedSuffixTree.build(database), path, block_size=block_size)
    result, calls = checked_disk_search(
        path, database, block_size, frames, make_matrix(), gap, query, min_score
    )
    assert calls > 1 and len(result) >= 4
    with DiskSuffixTree(path, database, pool_bytes(path, block_size, frames)) as tree:
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
    monkeypatch.setattr(tree, "siblings", no_siblings)
    engine = OasisEngine(tree, make_matrix(), FixedGapModel(gap), kernel="compiled")
    assert len(engine.search(query, min_score=min_score)) >= 4


@needs_compiled
def test_a_disk_engine_takes_the_page_step(tmp_path, monkeypatch):
    make_database, make_matrix, gap, query, min_score = CASES["protein"]
    engine = OasisEngine.build_on_disk(
        make_database(), make_matrix(), tmp_path / "tree.oasis", gap_model=FixedGapModel(gap),
        block_size=256, buffer_pool_bytes=256, kernel="compiled",
    )
    with engine:
        assert isinstance(engine.cursor, DiskSuffixTree)
        monkeypatch.setattr(engine.cursor, "siblings", no_siblings)
        result = engine.search(query, min_score=min_score)
        assert len(result) >= 4
        assert result.statistics.buffer_misses > 0
        assert engine.cursor.pool.frame_count == 1


@pytest.mark.parametrize("form", ["built", "read", "disk"])
@pytest.mark.parametrize(
    "choice",
    [
        *available_kernels(),
        pytest.param(ReferenceKernel(prune_dominated=False), id="reference-dominated-off"),
    ],
)
def test_statistics_kernel_names_the_code_that_ran(tmp_path_factory, monkeypatch, choice, form):
    """The dense oracle runs exactly when ``statistics.kernel`` says
    ``reference``, a rule switched off included; ``compiled`` expands every
    node of a records cursor in its C frontier, and the other kernels make
    one ``siblings()`` call per expanded node."""
    make_database, make_matrix, gap, query, min_score = CASES["protein"]
    database = make_database()
    if form == "disk":
        path = tmp_path_factory.mktemp("image") / "tree.oasis"
        build_disk_image(GeneralizedSuffixTree.build(database), path, block_size=256)
        tree = DiskSuffixTree(path, database, buffer_pool_bytes=512)
    else:
        tree = tree_of(form, database, tmp_path_factory)
    dense_arcs = []

    def spied_reference(*args, **kwargs):
        dense_arcs.append(args[2])
        return expand_arc_reference(*args, **kwargs)

    monkeypatch.setattr(kernels, "expand_arc_reference", spied_reference)
    calls = []
    siblings = tree.siblings
    monkeypatch.setattr(tree, "siblings", lambda node: calls.append(node) or siblings(node))
    engine = OasisEngine(tree, make_matrix(), FixedGapModel(gap), kernel=choice)
    result = engine.search(query, min_score=min_score)
    ran = result.statistics.kernel
    assert ran == get_kernel(choice).name
    assert bool(dense_arcs) == (ran == "reference")
    assert len(calls) == (0 if ran == "compiled" else result.statistics.nodes_expanded)
    assert result.statistics.nodes_expanded > 1 and len(result) >= 4


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
        get_kernel("compiled").node_step(records, entry_at(small_tree, node, context), context)
    assert counters(context) == before


@needs_compiled
def test_a_node_index_past_the_records_is_an_index_error(small_tree):
    context = context_for()
    node = ("I", small_tree.internal_node_count, 0, 0, 0)
    with pytest.raises(IndexError):
        get_kernel("compiled").node_step(
            small_tree.node_records, entry_at(small_tree, node, context), context
        )


@needs_compiled
def test_a_leaf_has_no_children(small_tree):
    context = context_for()
    leaf = next(child for child in small_tree.children(with_leaves(small_tree)) if child[0] == "L")
    entry = entry_at(small_tree, leaf, context)
    assert get_kernel("compiled").node_step(small_tree.node_records, entry, context) == []
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
        get_kernel("compiled").node_step(records(small_tree.node_records), entry, context)
    assert counters(context) == (0, 0, 0)


# --------------------------------------------------------------------- #
# The page step: a closed cursor, hostile images
# --------------------------------------------------------------------- #
#: The three-sequence protein database of the CI step that builds the kernel.
PROTEIN_TEXTS = ["MKVLAADTGLAVWKDDGNGYISAAE", "GGWKDDGNGYISAAEKL", "MKVLAQDTGLA"]


def protein_context(query="WKDDGNGYISAAE"):
    matrix = pam30()
    codes = PROTEIN_ALPHABET.encode(query)
    return ExpansionContext(
        query_codes=codes,
        score_rows=matrix.rows,
        gap_penalty=-8,
        heuristic=compute_heuristic_vector(codes, matrix),
        min_score=20,
    )


@pytest.fixture
def protein_image(tmp_path):
    """The database, its image at 256-byte blocks, and the built tree."""
    database = SequenceDatabase.from_texts(PROTEIN_TEXTS, alphabet=PROTEIN_ALPHABET)
    tree = GeneralizedSuffixTree.build(database)
    path = tmp_path / "tree.oasis"
    build_disk_image(tree, path, block_size=256)
    return database, path, tree


@needs_compiled
@pytest.mark.parametrize("frames", [1, "whole"])
def test_a_closed_cursor_makes_no_request(protein_image, frames):
    database, path, tree = protein_image
    disk = DiskSuffixTree(path, database, pool_bytes(path, 256, frames))
    context = protein_context()
    entry = entry_at(disk, disk.root, context)
    records = disk.node_records
    assert get_kernel("compiled").node_step(records, entry, context)
    before, counted = pool_counters(disk), counters(context)
    disk.close()
    with pytest.raises(ValueError, match="closed"):
        get_kernel("compiled").node_step(records, entry, context)
    with pytest.raises(ValueError, match="closed"):
        disk.siblings(disk.root)
    assert pool_counters(disk) == before and counters(context) == counted


def region_geometry(layout, region):
    """A record region's (record bytes, records per block, first block)."""
    if region is Region.INTERNAL_NODES:
        return 16, layout.internal_records_per_block, layout.internal_start_block
    return 4, layout.leaf_records_per_block, layout.leaves_start_block


def patch_word(path, layout, region, index, word, change):
    """Rewrite word ``word`` of record ``index`` of ``region`` in the image."""
    size, per_block, first = region_geometry(layout, region)
    offset = (first + index // per_block) * layout.block_size + (index % per_block) * size
    offset += 4 * word
    with open(path, "r+b") as image:
        image.seek(offset)
        (value,) = struct.unpack("<I", image.read(4))
        image.seek(offset)
        image.write(struct.pack("<I", change(value)))


def hostile_image(path, layout, tree, name):
    """Break the image at ``path`` one way; the node to expand."""
    internal = Region.INTERNAL_NODES
    if name == "child-pointer":
        # The root's first internal child, one past the internal records.
        patch_word(path, layout, internal, 0, 2, lambda _: layout.internal_count + 1)
        return tree.root
    if name == "child-at-the-count":
        patch_word(path, layout, internal, 0, 2, lambda _: layout.internal_count)
        return tree.root
    if name == "child-run":
        # The last internal record's run never ends: it runs off the region.
        last = layout.internal_count - 1
        patch_word(path, layout, internal, last, 0, lambda value: value & 0x7FFFFFFF)
        return next(
            node
            for node in internal_nodes(tree)
            if ("I", last) in {child[:2] for child in tree.children(node)}
        )
    node = with_leaves(tree)
    if name == "leaf-index":
        patch_word(path, layout, internal, node[1], 3, lambda _: layout.leaf_slots)
    elif name == "arc-end":
        child = next(c for c in tree.children(tree.root) if c[0] == "I")
        patch_word(path, layout, internal, child[1], 1, lambda _: layout.symbol_count)
        node = tree.root
    elif name == "suffix-past-the-ends":
        first_leaf = tree.internal_records[4 * node[1] + 3]
        patch_word(
            path, layout, Region.LEAF_NODES, first_leaf, 0,
            lambda value: (value & 0x80000000) | layout.symbol_count,
        )
    return node


def region_blocks(layout):
    """Each region's range of absolute blocks."""
    return {
        Region.SYMBOLS: range(
            layout.symbols_start_block, layout.symbols_start_block + layout.symbols_block_count
        ),
        Region.INTERNAL_NODES: range(
            layout.internal_start_block, layout.internal_start_block + layout.internal_block_count
        ),
        Region.LEAF_NODES: range(
            layout.leaves_start_block, layout.leaves_start_block + layout.leaves_block_count
        ),
    }


HOSTILE_IMAGES = [
    "child-pointer", "child-at-the-count", "child-run", "leaf-index", "arc-end",
    "suffix-past-the-ends",
]


@needs_compiled
@pytest.mark.parametrize("frames", [1, "whole"])
@pytest.mark.parametrize("name", HOSTILE_IMAGES)
def test_image_records_past_their_regions_are_an_index_error(protein_image, name, frames):
    database, path, tree = protein_image
    layout = DiskLayout.read_header(path)
    node = hostile_image(path, layout, tree, name)
    disk, twin = disk_pair(path, database, 256, frames)
    blocks = region_blocks(layout)
    try:
        # The parent's page is resident, so the failing call starts with a hit.
        parent_block = layout.internal_start_block + node[1] // layout.internal_records_per_block
        for tree in (disk, twin):
            tree.pool.page(parent_block, Region.INTERNAL_NODES)
        context = protein_context()
        entry = entry_at(disk, node, context)
        with pytest.raises(IndexError):
            get_kernel("compiled").node_step(disk.node_records, entry, context)
        with pytest.raises(IndexError):
            twin.siblings(node)
        assert counters(context) == (0, 0, 0)
        # The same requests, every hit counted, frame for frame.
        assert pool_state(disk) == pool_state(twin)
        assert disk.statistics.hits >= 1
        statistics = disk.statistics
        if frames == "whole":
            # Nothing was evicted: each region's misses are its blocks left
            # resident, so none was read past the region.
            resident = [block for block in disk.pool.blocks if block >= 0]
            assert statistics.evictions == 0
            assert statistics.per_region_misses == [
                sum(block in blocks[region] for block in resident) for region in Region
            ]
        else:
            assert statistics.per_region_misses == twin.statistics.per_region_misses
    finally:
        disk.close()
        twin.close()


@needs_compiled
def test_a_page_source_of_the_wrong_shape_is_a_type_error(protein_image):
    database, path, _ = protein_image
    with DiskSuffixTree(path, database) as disk:
        records = disk.node_records
        context = protein_context()
        entry = entry_at(disk, disk.root, context)
        state = records[0]
        for broken in (
            records[:2],
            (state[:6],) + records[1:],
            (state[:6] + (list(state[6]),),) + records[1:],
            (state[:2] + (tuple(state[2]),) + state[3:],) + records[1:],
        ):
            with pytest.raises(TypeError):
                get_kernel("compiled").node_step(broken, entry, context)
        assert disk.statistics.requests == 0
