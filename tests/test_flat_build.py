"""The disk build path: one sort per image, bounded memory, the builder's refusals.

Every way to a disk image -- ``ShardedIndexBuilder``, ``OasisEngine.build_on_disk``
and the CLI's ``index build`` -- goes through ``build_disk_image``, which
writes the record arrays of ``GeneralizedSuffixTree.build``: the suffixes of
each database are sorted once, and a tree handed in is written without
sorting again.  The peak of what one build allocates is held to a number of
bytes per residue (a count from ``tracemalloc``, no wall clock).

The build's stack pass runs in C (``flat_tree`` in ``core/_column_step.c``)
wherever the compiled step builds, and as a Python loop where it does not;
the fallback is reached as on such a host, by making ``_compiled_step``
refuse.  ``TestStackPassParity`` holds the two to the same arrays and the
same record bytes, the refusals run on both, and ``TestTheCompiledPass``
holds the C pass to its typed errors and to no scratch but its stack.
"""

import contextlib
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.suffixtree.build as build_module
from repro.cli import main
from repro.core import kernels
from repro.core.engine import OasisEngine
from repro.datagen import SwissProtLikeGenerator
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sequences.fasta import write_fasta
from repro.sharding.builder import ShardedIndexBuilder
from repro.sharding.engine import ShardedEngine
from repro.storage.builder import build_disk_image
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import random_protein

COMPILED = "compiled" in kernels.available_kernels()
needs_compiled = pytest.mark.skipif(not COMPILED, reason="the compiled step does not build here")
PATHS = ["compiled", "python"] if COMPILED else ["python"]


@contextlib.contextmanager
def stack_pass(path):
    """Build on the C pass, or on the Python loop as where the step does not build."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "python":
            patch.setattr(kernels, "_compiled_step", lambda: "the Python stack pass is forced")
        yield


@pytest.fixture(params=PATHS)
def path(request):
    with stack_pass(request.param):
        yield request.param


@pytest.fixture
def sorts(monkeypatch):
    """The databases ``sorted_suffixes`` was called on, in order."""
    calls = []
    sort = build_module.sorted_suffixes

    def counting(database):
        calls.append(database)
        return sort(database)

    monkeypatch.setattr(build_module, "sorted_suffixes", counting)
    return calls


class TestNoNodeOnTheDiskPath:
    # No node object is built anywhere any more; what is left to count is
    # the sort, once per image.
    def test_a_tree_is_written_without_sorting_again(self, sorts, tmp_path):
        database = SequenceDatabase.from_texts(["ACGTAC", "GTA"], alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        assert sorts == [database]
        build_disk_image(tree, tmp_path / "from-tree.oasis", block_size=256)
        assert sorts == [database]
        build_disk_image(database, tmp_path / "from-database.oasis", block_size=256)
        assert sorts == [database, database]

    def test_sharded_index_builder(self, sorts, small_protein_database, tmp_path):
        matrix, gap_model = pam30(), FixedGapModel(-8)
        ShardedIndexBuilder(matrix, gap_model, shard_count=2).build(
            small_protein_database, tmp_path / "index"
        )
        # One tree whatever the partition count: one sort.
        assert len(sorts) == 1
        with ShardedEngine.open(tmp_path / "index", backend="serial") as engine:
            assert len(engine.search("WKDDGNGYISAAE", min_score=20)) > 0

    def test_build_on_disk(self, sorts, small_protein_database, tmp_path):
        with OasisEngine.build_on_disk(
            small_protein_database, pam30(), tmp_path / "image.oasis", gap_model=FixedGapModel(-8)
        ) as engine:
            assert len(sorts) == 1
            assert len(engine.search("WKDDGNGYISAAE", min_score=20)) > 0

    def test_cli_index_build(self, sorts, small_protein_database, tmp_path, capsys):
        fasta = tmp_path / "db.fasta"
        write_fasta(small_protein_database, fasta)
        arguments = ["--database", str(fasta), "--output", str(tmp_path / "index"), "--shards", "2"]
        assert main(["index", "build", *arguments]) == 0
        assert len(sorts) == 1
        assert main(["index", "info", str(tmp_path / "index")]) == 0
        capsys.readouterr()


def test_build_memory_per_residue(tmp_path):
    database = SwissProtLikeGenerator(seed=3, family_count=70, singleton_count=70).generate()
    database.freeze()  # the database is the input, not part of the build
    residues = database.total_symbols
    assert residues > 100_000
    # One tiny build first: the modules a build imports on first use (NumPy
    # among them, ~55 B per residue here) are not the build's memory, and
    # without it the peak would depend on which test ran before this one.
    tiny = SequenceDatabase.from_texts(["MKVLAADTG"], alphabet=PROTEIN_ALPHABET)
    build_disk_image(tiny, tmp_path / "warm.oasis")
    tracemalloc.start()
    try:
        build_disk_image(database, tmp_path / "image.oasis")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The object-tree build this replaced peaked at 354 B per residue; this
    # one peaks at ~60 on either stack pass (in the sort and the level-order step).
    assert peak / residues <= 90, f"{peak / residues:.0f} B per residue"


@pytest.mark.usefixtures("path")
class TestRefusals:
    def test_a_database_past_31_bit_pointers(self, monkeypatch, paper_database, tmp_path):
        monkeypatch.setattr(build_module, "VALUE_MASK", paper_database.total_symbols)
        with pytest.raises(ValueError, match="31-bit"):
            build_disk_image(paper_database, tmp_path / "image.oasis")

    def test_a_suffix_that_is_a_prefix_of_its_predecessor(self):
        # "AC$" after "ACG$" with an LCP of 3: only possible when the
        # terminals were not told apart, which the builder must not swallow.
        with pytest.raises(ValueError, match="prefix of its predecessor"):
            build_module._flat_tree(np.array([0, 4]), np.array([0, 3]), np.array([4, 7]))

    def test_a_first_suffix_with_a_nonzero_lcp(self):
        with pytest.raises(ValueError, match="LCP 0"):
            build_module._flat_tree(np.array([0]), np.array([1]), np.array([4]))


def sequence_ends(database):
    return np.array(database.sequence_starts[1:] + [len(database.concatenated_codes)])


def built_on(path, database):
    """``_flat_tree``'s five arrays and ``tree_records``' bytes, on one path."""
    with stack_pass(path):
        flat = build_module._flat_tree(*build_module.sorted_suffixes(database), sequence_ends(database))
        records = build_module.tree_records(database)
    return [(item.dtype, item.tolist()) for item in flat], [item.tobytes() for item in records]


def assert_paths_agree(texts, alphabet):
    database = SequenceDatabase.from_texts(texts, alphabet=alphabet)
    compiled = built_on("compiled", database)
    assert compiled == built_on("python", database)
    return compiled


def point_mutants(text, count, rng):
    mutants = []
    for _ in range(count):
        letters = list(text)
        spot = rng.randrange(len(letters))
        letters[spot] = rng.choice([base for base in "ACGT" if base != letters[spot]])
        mutants.append("".join(letters))
    return mutants


@needs_compiled
class TestStackPassParity:
    def test_random_protein(self):
        rng = random.Random(11)
        texts = [random_protein(rng, rng.randint(1, 300)) for _ in range(40)]
        assert_paths_agree(texts, PROTEIN_ALPHABET)

    def test_repetitive_dna_with_a_deep_stack(self):
        repeat = "ACGTTGA" * 200
        (*_, (_, node_parent)), _ = assert_paths_agree(
            [repeat, *point_mutants(repeat, 5, random.Random(3))], DNA_ALPHABET
        )

        def level(node):
            steps = 0
            while node:
                node, steps = node_parent[node], steps + 1
            return steps

        # A path of more nodes than the stack's first 64 entries: it grew.
        assert max(map(level, range(len(node_parent)))) > 64

    def test_one_one_residue_sequence(self):
        (_, (_, leaf_parent), (_, depths), _, _), _ = assert_paths_agree(["A"], DNA_ALPHABET)
        assert leaf_parent == [0] and depths == [0]

    def test_many_one_residue_sequences(self):
        assert_paths_agree(list("ACGTTGCA" * 25), DNA_ALPHABET)

    @given(st.lists(st.text(alphabet="AC", min_size=1, max_size=30), min_size=1, max_size=16))
    def test_a_small_alphabet(self, texts):
        assert_paths_agree(texts, DNA_ALPHABET)


def lcps_of(database):
    return build_module.sorted_suffixes(database)[1]


@needs_compiled
class TestTheCompiledPass:
    @pytest.fixture
    def flat_tree(self):
        return kernels._compiled_step().flat_tree

    @staticmethod
    def outputs(leaves, nodes):
        return [np.empty(leaves, dtype=np.intc)] + [np.empty(nodes, dtype=np.intc) for _ in range(3)]

    def test_writes_what_it_counts_and_no_further(self, flat_tree, small_protein_database):
        lcps = lcps_of(small_protein_database)
        nodes = flat_tree(lcps)
        spare = 3
        outputs = [np.full(len(lcps) + spare, -7, dtype=np.intc)] + [
            np.full(nodes + spare, -7, dtype=np.intc) for _ in range(3)
        ]
        assert flat_tree(lcps, *outputs) == nodes
        assert all((output[-spare:] == -7).all() for output in outputs)
        assert all((output[:-spare] >= 0).all() for output in outputs)
        # Both item widths of the LCPs, array('i') outputs.
        wide = array("i", bytes(4 * len(lcps))), *(array("i", bytes(4 * nodes)) for _ in range(3))
        assert flat_tree(lcps.astype(np.int64), *wide) == nodes
        assert [list(item) for item in wide] == [item[:-spare].tolist() for item in outputs]

    def test_no_scratch_but_the_stack(self, flat_tree):
        database = SwissProtLikeGenerator(seed=5, family_count=20, singleton_count=20).generate()
        lcps = lcps_of(database)
        outputs = self.outputs(len(lcps), flat_tree(lcps))
        tracemalloc.start()
        try:
            flat_tree(lcps)
            flat_tree(lcps, *outputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The stack holds at most the longest LCP + 1 entries of 8 bytes,
        # grown by doubling from 64; the LCPs alone are 4 bytes each.
        assert len(lcps) > 20_000
        assert peak <= 16 * max(64, int(lcps.max()) + 1) + 1024

    @pytest.mark.parametrize(
        "lcps, error, message",
        [
            (np.array([0, 2, -1], dtype=np.intc), ValueError, "negative"),
            (np.array([0, 2**31], dtype=np.int64), OverflowError, "2\\*\\*31"),
            (np.array([1, 0], dtype=np.intc), ValueError, "LCP 0"),
            (np.zeros(8, dtype=np.intc)[::2], ValueError, "contiguous"),
            (np.zeros(4, dtype=np.int16), TypeError, "lcps must hold"),
            (np.zeros(4, dtype=np.uint32), TypeError, "lcps must hold"),
        ],
    )
    def test_refuses_the_lcps(self, flat_tree, lcps, error, message):
        with pytest.raises(error, match=message):
            flat_tree(lcps)
        with pytest.raises(error, match=message):
            flat_tree(lcps, *self.outputs(len(lcps), len(lcps)))

    def test_refuses_an_output(self, flat_tree):
        lcps = np.array([0, 1, 0, 2], dtype=np.intc)
        nodes = flat_tree(lcps)
        for slot in range(4):
            outputs = self.outputs(len(lcps), nodes)
            outputs[slot] = outputs[slot].astype(np.int64)
            with pytest.raises(TypeError, match="4-byte"):
                flat_tree(lcps, *outputs)
            outputs[slot] = array("I", bytes(4 * len(outputs[slot])))
            with pytest.raises(TypeError, match="4-byte"):
                flat_tree(lcps, *outputs)
            outputs = self.outputs(len(lcps), nodes)
            outputs[slot].flags.writeable = False
            with pytest.raises(TypeError, match="writable"):
                flat_tree(lcps, *outputs)
            outputs = self.outputs(len(lcps), nodes)
            outputs[slot] = outputs[slot][:-1]
            with pytest.raises(ValueError, match="short|hold"):
                flat_tree(lcps, *outputs)
        with pytest.raises(ValueError, match="short"):
            flat_tree(np.zeros(0, dtype=np.intc), *self.outputs(0, 0))
        with pytest.raises(TypeError, match="1 or 5 arguments"):
            flat_tree(lcps, *self.outputs(len(lcps), nodes)[:3])
