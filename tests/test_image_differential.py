"""Differential on the image bytes: the flat builder writes the object-tree walk's image.

``build_disk_image`` writes the Section 3.4 arrays that
``GeneralizedSuffixTree.build`` makes from sorted suffixes and LCPs without
ever making a node; ``tests/image_oracle.py`` is the builder it replaced, a
level-order walk over node objects built by the classic stack conversion.
The two share nothing past the suffix array, so every database here must come
out as the *same file* from both, at block sizes where runs straddle pages
(72) and where they never do (2048).  What they do share, ``sorted_suffixes``,
is held to a naive sort of the construction codes on the same databases.

The stack pass has few ways to go wrong and they all show on small inputs, so
the shapes that reach them are spelled out next to the random databases: one
sequence, length-1 sequences, duplicated sequences (LCP = the whole sequence,
only the terminals differ), a homopolymer (every split on the rightmost
path), every leaf under the root.

The example budget comes from the hypothesis profile (``tests/conftest.py``):
bounded in tier-1, ``HYPOTHESIS_PROFILE=ci`` for the larger CI run.
"""

import pytest
from hypothesis import given, strategies as st

from image_oracle import naive_lcp, naive_suffix_array, write_image_from_object_tree
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.builder import build_disk_image
from repro.suffixtree.build import construction_codes, sorted_suffixes
from repro.suffixtree.generalized import GeneralizedSuffixTree

BLOCK_SIZES = (72, 256, 2048)

protein_text = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=60)
dna_text = st.text(alphabet="ACGT", min_size=1, max_size=120)
#: Few symbols, so that repeats are long and splits stack up.
repetitive_text = st.text(alphabet="AC", min_size=1, max_size=40)


@st.composite
def databases(draw):
    alphabet, text = draw(
        st.sampled_from(
            [
                (PROTEIN_ALPHABET, protein_text),
                (DNA_ALPHABET, dna_text),
                (DNA_ALPHABET, repetitive_text),
            ]
        )
    )
    texts = draw(st.lists(text, min_size=1, max_size=8))
    # Duplicate some sequences outright: their suffixes differ in the terminal only.
    texts += draw(st.lists(st.sampled_from(texts), max_size=3))
    return texts, alphabet


HAND_MADE = {
    "one sequence": (["ACGTACGT"], DNA_ALPHABET),
    "one symbol": (["A"], DNA_ALPHABET),
    "length-1 sequences": (["A", "C", "A", "G", "A"], DNA_ALPHABET),
    "duplicated sequences": (["ACGTAC", "ACGTAC", "ACGTAC", "GT", "GT"], DNA_ALPHABET),
    "homopolymer": (["A" * 23], DNA_ALPHABET),
    "homopolymers": (["A" * 9, "A" * 14, "C" * 5], DNA_ALPHABET),
    "every leaf under the root": (["ACGT"], DNA_ALPHABET),
    "every leaf under the root, many sequences": (list("ARNDCQEGHILKMFPSTWYV"), PROTEIN_ALPHABET),
    "the paper's example": (["AGTACGCCTAG"], DNA_ALPHABET),
    "nested repeats": (["ACACACACGACACACAC", "CACACAG"], DNA_ALPHABET),
}


def image_bytes(build, texts, alphabet, path, **options):
    # A fresh database per build: neither builder may lean on what the other froze.
    build(SequenceDatabase.from_texts(texts, alphabet=alphabet), path, **options)
    return path.read_bytes()


def check(directory, texts, alphabet, block_size):
    expected = image_bytes(
        write_image_from_object_tree, texts, alphabet, directory / "oracle.oasis", block_size=block_size
    )
    built = image_bytes(
        build_disk_image, texts, alphabet, directory / "flat.oasis", block_size=block_size
    )
    assert built == expected, (texts, block_size)
    database = SequenceDatabase.from_texts(texts, alphabet=alphabet)
    positions, lcps = sorted_suffixes(database)
    text = construction_codes(database)
    naive = naive_suffix_array(text)[: database.total_symbols]
    assert positions.tolist() == naive, texts
    assert lcps.tolist() == naive_lcp(text, naive), texts


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("case", sorted(HAND_MADE))
def test_hand_made_shapes(tmp_path, case, block_size):
    texts, alphabet = HAND_MADE[case]
    check(tmp_path, texts, alphabet, block_size)


@given(database=databases(), block_size=st.sampled_from(BLOCK_SIZES))
def test_random_databases(tmp_path_factory, database, block_size):
    texts, alphabet = database
    check(tmp_path_factory.mktemp("image"), texts, alphabet, block_size)


def test_a_cursor_stands_for_its_database(tmp_path):
    # bench_e2e and the benchmarks hand build_disk_image the in-memory tree,
    # whose record arrays are written as they are.
    texts, alphabet = HAND_MADE["nested repeats"]
    database = SequenceDatabase.from_texts(texts, alphabet=alphabet)
    tree = GeneralizedSuffixTree.build(database)
    build_disk_image(tree, tmp_path / "from-tree.oasis", block_size=256)
    build_disk_image(database, tmp_path / "from-database.oasis", block_size=256)
    assert (tmp_path / "from-tree.oasis").read_bytes() == (
        tmp_path / "from-database.oasis"
    ).read_bytes()
