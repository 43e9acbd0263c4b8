"""Differential on the in-memory tree: the disk cursor's siblings, Ukkonen's nodes, the image's bytes.

The in-memory engine searches the record arrays ``build_disk_image`` writes,
but decodes them with code of its own (array indexing) where the disk cursor
decodes pages.  So on random protein and DNA databases -- 1 to 16 sequences,
length-1 sequences, repeated sequences -- every internal node must give the
same ``siblings()`` from both, at block sizes where sibling runs straddle
pages (72) and where they never do (2048), for the built tree and for the
tree read back from each image; the node count must be that of Ukkonen's
construction, which shares no code with either; and the image written from
a built tree must be the image written from its database.

``TestConcurrentSearches`` runs threads over one freshly built tree, whose
nodes the compiled kernel decodes from the shared arrays in every thread.

The example budget comes from the hypothesis profile (``tests/conftest.py``):
bounded in tier-1, ``HYPOTHESIS_PROFILE=ci`` for the larger CI run.
"""

import sys

from hypothesis import given, strategies as st

from repro.core.engine import OasisEngine
from repro.datagen import MotifWorkloadGenerator, SwissProtLikeGenerator
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.suffixtree.build import construction_codes
from repro.suffixtree.generalized import GeneralizedSuffixTree
from ukkonen_oracle import UkkonenSuffixTree

BLOCK_SIZES = (72, 256, 2048)

PROTEIN_SYMBOLS = "ARNDCQEGHILKMFPSTWYV"


def assert_siblings_match(tree, disk, context):
    """Every internal node's ``siblings()`` from ``tree`` is the disk cursor's."""
    pending, internal = [tree.root], 0
    while pending:
        node = pending.pop()
        siblings = tree.siblings(node)
        assert siblings == disk.siblings(node), (context, node)
        pending.extend(child for child, _, is_leaf in siblings if not is_leaf)
        internal += 1
    assert internal == tree.internal_node_count


def texts_of(symbols, max_size):
    # Length-1 sequences drawn on purpose: their only leaf hangs off a node
    # whose other children belong to other sequences.
    return st.one_of(
        st.sampled_from(list(symbols)), st.text(alphabet=symbols, min_size=1, max_size=max_size)
    )


@st.composite
def databases(draw):
    alphabet, text = draw(
        st.sampled_from(
            [
                (PROTEIN_ALPHABET, texts_of(PROTEIN_SYMBOLS, 40)),
                (DNA_ALPHABET, texts_of("ACGT", 60)),
                # Few symbols, so that repeats are long and splits stack up.
                (DNA_ALPHABET, texts_of("AC", 30)),
            ]
        )
    )
    texts = draw(st.lists(text, min_size=1, max_size=16))
    # Repeat some sequences outright: their suffixes differ in the terminal only.
    texts += draw(st.lists(st.sampled_from(texts), max_size=3))
    return texts[:16], alphabet


@given(database=databases())
def test_memory_tree_is_the_image(tmp_path_factory, database):
    texts, alphabet = database
    directory = tmp_path_factory.mktemp("tree")
    db = SequenceDatabase.from_texts(texts, alphabet=alphabet)
    tree = GeneralizedSuffixTree.build(db)

    # Ukkonen over the construction codes (one distinct terminal per
    # sequence) has our nodes, plus a leaf per suffix that starts at a
    # terminal and one for its own sentinel.
    counts = UkkonenSuffixTree(construction_codes(db)).node_counts()
    assert tree.internal_node_count == counts["internal"]
    assert tree.node_count == counts["total"] - len(db) - 1
    assert tree.leaf_count == db.total_symbols

    for block_size in BLOCK_SIZES:
        from_tree, from_database = directory / f"tree-{block_size}", directory / f"db-{block_size}"
        build_disk_image(tree, from_tree, block_size=block_size)
        build_disk_image(
            SequenceDatabase.from_texts(texts, alphabet=alphabet), from_database, block_size=block_size
        )
        assert from_tree.read_bytes() == from_database.read_bytes(), (texts, block_size)
        read = GeneralizedSuffixTree.from_image(from_tree, db)
        with DiskSuffixTree(from_tree, db) as disk:
            assert_siblings_match(tree, disk, (texts, block_size))
            assert_siblings_match(read, disk, (texts, block_size, "read"))


class TestConcurrentSearches:
    """Threads expanding the nodes of one tree at once."""

    def test_threads_over_one_tree_match_the_serial_run(self):
        # Four workers expand the same nodes at once on a tree no query has
        # touched (the first reads its record tuple); a short switch interval
        # makes them interleave between expansions.  Every hit and every
        # counter must be the serial run's.
        generator = SwissProtLikeGenerator(seed=31, family_count=5, singleton_count=8)
        database = generator.generate()
        queries = [
            query.text
            for query in MotifWorkloadGenerator(generator, seed=32, query_count=12).generate()
        ]
        queries += queries  # each query twice, in flight together

        def run(workers):
            engine = OasisEngine.build(database, pam30(), FixedGapModel(-8))
            report = engine.search_many(queries, workers=workers, min_score=25)
            results = report.results()
            assert all(outcome.ok for outcome in report.outcomes)
            return [
                (
                    [(hit.sequence_index, hit.score) for hit in result],
                    {
                        name: value
                        for name, value in result.statistics.as_dict().items()
                        if name != "elapsed_seconds"
                    },
                )
                for result in results
            ]

        serial = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = run(4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert sum(bool(hits) for hits, _ in serial) >= len(queries) // 2
