"""Differential through the disk image: OASIS on format v2 == Smith-Waterman.

The image is a second encoding of the tree, and a read-path bug (a dropped
sibling, a run read from the wrong page) shows as a missing or weaker hit,
not as an exception.  So random databases go through
``build_disk_image`` at block sizes where sibling runs straddle
pages all the time (72: four internal records, 18 leaf records) and never
(2048), on pools of one frame, an eighth of the image and all of it, and the
answer is held to ``baselines.smith_waterman`` (hit set, scores, order) and
to the in-memory engine's work counters (the same nodes must be reached).

The example budget comes from the hypothesis profile (``tests/conftest.py``):
bounded in tier-1, ``HYPOTHESIS_PROFILE=ci`` for the larger CI run.
"""

import os

from hypothesis import given, strategies as st

from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.core.engine import OasisEngine
from repro.scoring.data import blosum62, nucleotide_matrix, pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree

protein_text = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=60)
dna_text = st.text(alphabet="ACGT", min_size=1, max_size=120)

#: 72 is the smallest block that holds the 70-byte header.
block_sizes = st.sampled_from([72, 256, 2048])
#: Pool size as a share of the image; 0 is one frame.
pool_shares = st.sampled_from([0.0, 0.125, 1.0])

WORK_COUNTERS = ("columns_expanded", "nodes_expanded", "nodes_enqueued", "nodes_pruned")


def check(tmp_path_factory, database, matrix, gap, query, min_score, block_size, pool_share):
    gap_model = FixedGapModel(gap)
    expected = SmithWatermanAligner(matrix, gap_model).search(database, query, min_score=min_score)
    memory = OasisEngine.build(database, matrix=matrix, gap_model=gap_model).search(
        query, min_score=min_score
    )
    path = tmp_path_factory.mktemp("differential") / "image.oasis"
    build_disk_image(database, path, block_size=block_size)
    image_bytes = os.path.getsize(path)
    pool_bytes = max(1, int(image_bytes * pool_share))
    with DiskSuffixTree(path, database, buffer_pool_bytes=pool_bytes) as disk:
        assert disk.pool.frame_count == max(1, pool_bytes // block_size)
        result = OasisEngine(disk, matrix, gap_model).search(query, min_score=min_score)
        assert result.statistics.buffer_misses == disk.pool.statistics.misses

    def hit_list(hits):
        return [(hit.sequence_index, hit.score) for hit in hits]

    assert hit_list(result) == hit_list(expected)
    ours, theirs = result.statistics.as_dict(), memory.statistics.as_dict()
    assert {name: ours[name] for name in WORK_COUNTERS} == {
        name: theirs[name] for name in WORK_COUNTERS
    }


class TestDiskImageAgainstSmithWaterman:
    """Up to 16 sequences: both engines break score ties by identifier."""

    @given(
        texts=st.lists(protein_text, min_size=1, max_size=16),
        query=protein_text,
        scoring=st.sampled_from([(pam30, -8), (blosum62, -8)]),
        min_score=st.integers(min_value=1, max_value=40),
        block_size=block_sizes,
        pool_share=pool_shares,
    )
    def test_protein(
        self, tmp_path_factory, texts, query, scoring, min_score, block_size, pool_share
    ):
        matrix, gap = scoring
        database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
        check(tmp_path_factory, database, matrix(), gap, query, min_score, block_size, pool_share)

    @given(
        texts=st.lists(dna_text, min_size=1, max_size=16),
        query=dna_text,
        min_score=st.integers(min_value=1, max_value=14),
        block_size=block_sizes,
        pool_share=pool_shares,
    )
    def test_dna(self, tmp_path_factory, texts, query, min_score, block_size, pool_share):
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        matrix = nucleotide_matrix(1, -3)
        check(tmp_path_factory, database, matrix, -4, query, min_score, block_size, pool_share)
