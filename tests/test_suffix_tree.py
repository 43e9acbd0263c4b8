"""Unit tests for the generalized suffix tree (construction + queries)."""

import random

import pytest

from cursor_lookups import arc_label, contains, find_exact, find_occurrences, path_label
from image_oracle import object_tree_shape, tree_shape
from repro.core.engine import OasisEngine
from repro.datagen import MotifWorkloadGenerator, SwissProtLikeGenerator
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.suffixtree.cursor import SuffixTreeCursor
from repro.suffixtree.generalized import GeneralizedSuffixTree

from support import PAPER_TARGET, Delegating, random_dna, random_protein


def leaves(cursor):
    """Every leaf handle of the tree."""
    stack = [cursor.root]
    while stack:
        current = stack.pop()
        if cursor.is_leaf(current):
            yield current
        else:
            stack.extend(cursor.children(current))


def is_the_object_tree(tree):
    """The leaves (path label, suffix start) and internal-node count of the
    node-object tree of ``tests/image_oracle.py``, which is compact by construction."""
    return tree_shape(tree) == object_tree_shape(tree.database)


def brute_force_occurrences(texts, query):
    return sorted(
        (i, j)
        for i, text in enumerate(texts)
        for j in range(len(text) - len(query) + 1)
        if text[j : j + len(query)] == query
    )


class TestPaperExample:
    """Checks against the Figure 2 tree on AGTACGCCTAG."""

    def test_leaf_count_equals_sequence_length(self, paper_tree):
        assert paper_tree.leaf_count == len(PAPER_TARGET)

    def test_contains_tacg(self, paper_tree):
        assert contains(paper_tree, "TACG")

    def test_tacg_occurrence_position(self, paper_tree):
        # The paper: "this substring is present ... beginning at position 2".
        assert find_occurrences(paper_tree, "TACG") == [(0, 2)]

    def test_absent_substring(self, paper_tree):
        assert not contains(paper_tree, "GGG")
        assert find_occurrences(paper_tree, "GGG") == []

    def test_full_sequence_is_a_path(self, paper_tree):
        assert contains(paper_tree, PAPER_TARGET)

    def test_structure_is_valid(self, paper_tree):
        assert is_the_object_tree(paper_tree)

    def test_path_labels_are_prefix_closed(self, paper_tree):
        for leaf in leaves(paper_tree):
            label = path_label(paper_tree, leaf)
            # Every leaf path is suffix + terminal.
            assert label.endswith("$")
            assert PAPER_TARGET.endswith(label[:-1]) or label[:-1] in PAPER_TARGET


class TestConstructionProperties:
    def test_one_leaf_per_database_symbol(self, small_dna_database):
        tree = GeneralizedSuffixTree.build(small_dna_database)
        assert tree.leaf_count == small_dna_database.total_symbols

    def test_internal_nodes_bounded_by_leaves(self, small_dna_database):
        tree = GeneralizedSuffixTree.build(small_dna_database)
        assert tree.internal_node_count < tree.leaf_count + 1

    def test_every_leaf_maps_to_its_sequence(self, small_dna_database):
        tree = GeneralizedSuffixTree.build(small_dna_database)
        for leaf in leaves(tree):
            sequence_index, offset = small_dna_database.locate(tree.suffix_start(leaf))
            assert tree.sequences_below(leaf) == [sequence_index]
            assert offset < len(small_dna_database[sequence_index])

    def test_validate_reports_no_problems(self, small_dna_database):
        assert is_the_object_tree(GeneralizedSuffixTree.build(small_dna_database))

    def test_protein_database(self, small_protein_database):
        tree = GeneralizedSuffixTree.build(small_protein_database)
        assert is_the_object_tree(tree)
        core = "WKDDGNGYISAAE"
        assert contains(tree, core)
        # Planted in half of the family members verbatim.
        assert len(find_occurrences(tree, core)) >= 3

    @pytest.mark.parametrize("seed", range(6))
    def test_occurrences_match_brute_force(self, seed):
        rng = random.Random(seed)
        texts = [random_dna(rng, rng.randint(5, 60)) for _ in range(rng.randint(1, 5))]
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        for _ in range(25):
            length = rng.randint(1, 7)
            query = random_dna(rng, length)
            assert find_occurrences(tree, query) == brute_force_occurrences(texts, query)

    def test_repeated_identical_sequences(self):
        database = SequenceDatabase.from_texts(["ACGT", "ACGT", "ACGT"], alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        assert is_the_object_tree(tree)
        assert find_occurrences(tree, "ACG") == [(0, 0), (1, 0), (2, 0)]

    def test_single_symbol_sequence(self):
        database = SequenceDatabase.from_texts(["A"], alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        assert tree.leaf_count == 1
        assert contains(tree, "A")
        assert not contains(tree, "C")


class TestCursorInterface:
    def test_root_and_children(self, paper_tree):
        root = paper_tree.root
        assert not paper_tree.is_leaf(root)
        children = paper_tree.children(root)
        assert len(children) >= 4  # A, C, G, T branches at least

    def test_arc_symbols_match_arc_span(self, paper_tree):
        for child in paper_tree.children(paper_tree.root):
            start, length = paper_tree.arc(child)
            assert len(paper_tree.arc_symbols(child)) == length

    def test_string_depth_of_leaf(self, paper_tree):
        for leaf in leaves(paper_tree):
            depth = paper_tree.string_depth(leaf)
            # suffix length + terminal
            assert depth == len(PAPER_TARGET) - paper_tree.suffix_start(leaf) + 1

    def test_suffix_start_only_for_leaves(self, paper_tree):
        with pytest.raises(TypeError):
            paper_tree.suffix_start(paper_tree.root)

    def test_leaf_positions_cover_all_suffixes(self, paper_tree):
        positions = sorted(paper_tree.leaf_positions(paper_tree.root))
        assert positions == list(range(len(PAPER_TARGET)))

    def test_sequences_below_root(self, small_dna_database):
        tree = GeneralizedSuffixTree.build(small_dna_database)
        assert sorted(tree.sequences_below(tree.root)) == list(range(len(small_dna_database)))

    @pytest.mark.parametrize("which", ["paper", "protein"])
    def test_sequences_below_matches_base_and_disk(self, which, paper_database, tmp_path):
        # The in-memory tree finds each leaf's sequence by one bisection; the
        # base class locates each leaf position, and so does the disk cursor.
        # Below every internal node: the base's list in the base's first-seen
        # order, and the disk cursor's sequences (it walks its subtree in an
        # order of its own).
        if which == "paper":
            database = paper_database
        else:
            rng = random.Random(19)
            database = SequenceDatabase.from_texts(
                [random_protein(rng, rng.randint(5, 40)) for _ in range(12)],
                alphabet=PROTEIN_ALPHABET,
            )
        tree = GeneralizedSuffixTree.build(database)
        path = tmp_path / "tree.oasis"
        build_disk_image(tree, path, block_size=512)
        internal = 0
        with DiskSuffixTree(path, database) as disk:
            pairs = [(tree.root, disk.root)]
            while pairs:
                node, handle = pairs.pop()
                internal += 1
                below = tree.sequences_below(node)
                assert below == SuffixTreeCursor.sequences_below(tree, node)
                assert sorted(below) == sorted(disk.sequences_below(handle))
                # An internal child is identified by its arc's first symbol.
                on_disk = {
                    disk.arc_symbols(child)[0]: child
                    for child in disk.children(handle)
                    if not disk.is_leaf(child)
                }
                in_memory = [child for child in tree.children(node) if not tree.is_leaf(child)]
                assert len(in_memory) == len(on_disk)
                pairs.extend((child, on_disk[tree.arc_symbols(child)[0]]) for child in in_memory)
        assert internal == tree.internal_node_count

    def test_find_exact_returns_none_for_missing(self, paper_tree):
        assert find_exact(paper_tree, DNA_ALPHABET.encode("AGTT")) is None

    def test_arc_label(self, paper_tree):
        labels = {arc_label(paper_tree, c)[0] for c in paper_tree.children(paper_tree.root)}
        assert labels <= set("ACGT$")


class TestNodeHelpers:
    def test_count_nodes(self, paper_tree):
        # The counts are the lengths of the record arrays; a walk agrees.
        walked = list(leaves(paper_tree))
        assert len(walked) == paper_tree.leaf_count == len(PAPER_TARGET)
        assert paper_tree.internal_node_count == object_tree_shape(paper_tree.database)[1]
        assert paper_tree.node_count == paper_tree.internal_node_count + paper_tree.leaf_count
        assert "leaves=11" in repr(paper_tree)

    def test_validate_tree_detects_bad_arc(self, paper_database):
        # An internal record whose depth is its parent's has an empty arc:
        # the tree is no longer the compact one.
        tree = GeneralizedSuffixTree.build(paper_database)
        assert is_the_object_tree(tree)
        child = next(c for c in tree.children(tree.root) if not tree.is_leaf(c))
        tree = GeneralizedSuffixTree(
            paper_database, tree.internal_records[:], tree.leaf_records
        )
        tree.internal_records[4 * child[1]] -= child[3]
        assert tree.arc(tree.children(tree.root)[0]) == (child[2], 0)
        assert not is_the_object_tree(tree)

    def test_leaves_have_no_children(self, paper_tree):
        leaf = next(leaves(paper_tree))
        assert paper_tree.children(leaf) == [] and paper_tree.siblings(leaf) == []

    def test_children_are_decoded_afresh_on_every_call(self, paper_tree):
        # Nothing is kept per node: every call decodes an equal, new list,
        # and walking the whole tree leaves its attributes as they were.
        before = dict(vars(paper_tree))
        pending = [paper_tree.root]
        while pending:
            node = pending.pop()
            first = paper_tree.children(node)
            assert paper_tree.children(node) == first
            assert paper_tree.children(node) is not first
            pending.extend(child for child in first if not paper_tree.is_leaf(child))
        assert vars(paper_tree) == before

    @pytest.mark.parametrize("form", ["built", "read", "disk", "wrapped"])
    def test_hits_and_counters_do_not_depend_on_the_cursor(self, tmp_path, form):
        # The default kernel expands a tree held as record arrays (built or
        # read from its image) from the records, and any other cursor (the
        # disk cursor, or a plain cursor around the built tree) through its
        # sibling lists: each must give the hits and every counter of the
        # Python kernel on the built tree.
        generator = SwissProtLikeGenerator(seed=41, family_count=4, singleton_count=6)
        database = generator.generate()
        queries = [
            query.text
            for query in MotifWorkloadGenerator(generator, seed=42, query_count=6).generate()
        ]
        built = GeneralizedSuffixTree.build(database)
        path = tmp_path / "tree.oasis"
        build_disk_image(built, path, block_size=256)
        cursors = {
            "built": lambda: built,
            "read": lambda: GeneralizedSuffixTree.from_image(path, database),
            "disk": lambda: DiskSuffixTree(path, database, buffer_pool_bytes=4 * 256),
            "wrapped": lambda: Delegating(built),
        }

        def run(cursor, kernel=None):
            engine = OasisEngine(cursor, pam30(), FixedGapModel(-8), kernel=kernel)
            report = engine.search_many(queries, min_score=25)
            engine.close()
            assert all(outcome.ok for outcome in report.outcomes)
            return [
                (
                    [(hit.sequence_index, hit.score) for hit in result],
                    {
                        name: value
                        for name, value in result.statistics.as_dict().items()
                        if name not in ("elapsed_seconds", "kernel")
                        and not name.startswith("buffer_")
                    },
                )
                for result in report.results()
            ]

        expected = run(built, kernel="live")
        assert run(cursors[form]()) == expected
        assert any(hits for hits, _ in expected)

    def test_a_search_keeps_nothing_per_node(self):
        # Distinct queries over a tree expand thousands of distinct nodes;
        # afterwards the tree holds what it held before they ran, plus the
        # tuple of its own arrays that the compiled kernel reads.
        generator = SwissProtLikeGenerator(seed=5, family_count=20, singleton_count=20)
        engine = OasisEngine.build(generator.generate(), pam30(), FixedGapModel(-8))
        tree = engine.cursor
        before = dict(vars(tree))
        queries = [
            query.text
            for query in MotifWorkloadGenerator(generator, seed=6, query_count=24).generate()
        ]
        assert len(set(queries)) == len(queries)
        report = engine.search_many(queries, min_score=18)
        assert all(outcome.ok for outcome in report.outcomes)
        assert sum(result.statistics.nodes_expanded for result in report.results()) > 8192

        after = dict(vars(tree))
        after.pop("node_records", None)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())

        # Walking leaves for a hit decodes no children.
        decoded = []
        children = tree.children
        tree.children = lambda node: decoded.append(node) or children(node)
        assert sum(1 for _ in tree.leaf_positions(tree.root)) == tree.leaf_count
        assert not decoded
