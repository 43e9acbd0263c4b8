"""Needleman-Wunsch global alignment.

Not part of the paper's evaluation, but a natural companion to the local
aligner: the synthetic data generators and several tests use it to check
scoring conventions independently of the Smith-Waterman code (a global score
can never exceed the local score of the same pair, and the two agree exactly
when the optimal local alignment spans both sequences end to end).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.results import Alignment
from repro.scoring.gaps import DEFAULT_GAP_MODEL, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.sequence import Sequence


class NeedlemanWunschAligner:
    """Global alignment with a linear gap model."""

    def __init__(self, matrix: SubstitutionMatrix, gap_model: GapModel = DEFAULT_GAP_MODEL):
        gap_model.validate()
        if gap_model.is_affine:
            raise NotImplementedError("the global aligner implements linear gaps only")
        self.matrix = matrix
        self.gap_model = gap_model

    def score(self, query: str, target: str) -> int:
        """The optimal global alignment score."""
        matrix, _ = self._fill(query, target, keep_moves=False)
        return int(matrix[-1, -1])

    def align(self, query: str, target: str) -> Alignment:
        """The optimal global alignment with its traceback."""
        query_sequence = Sequence(query, self.matrix.alphabet)
        target_sequence = Sequence(target, self.matrix.alphabet)
        matrix, moves = self._fill(query, target, keep_moves=True)
        aligned_query: List[str] = []
        aligned_target: List[str] = []
        i, j = len(query_sequence), len(target_sequence)
        while i > 0 or j > 0:
            move = moves[i, j]
            if move == 1:
                aligned_query.append(query_sequence.text[i - 1])
                aligned_target.append(target_sequence.text[j - 1])
                i -= 1
                j -= 1
            elif move == 2:
                aligned_query.append(query_sequence.text[i - 1])
                aligned_target.append("-")
                i -= 1
            else:
                aligned_query.append("-")
                aligned_target.append(target_sequence.text[j - 1])
                j -= 1
        return Alignment(
            score=int(matrix[-1, -1]),
            query_start=0,
            query_end=len(query_sequence),
            target_start=0,
            target_end=len(target_sequence),
            aligned_query="".join(reversed(aligned_query)),
            aligned_target="".join(reversed(aligned_target)),
        )

    def _fill(self, query: str, target: str, keep_moves: bool) -> Tuple[np.ndarray, np.ndarray]:
        query_codes = Sequence(query, self.matrix.alphabet).codes
        target_codes = Sequence(target, self.matrix.alphabet).codes
        gap = self.gap_model.per_symbol
        lookup = self.matrix.lookup
        m, n = len(query_codes), len(target_codes)
        matrix = np.zeros((m + 1, n + 1), dtype=np.int64)
        moves = np.zeros((m + 1, n + 1), dtype=np.int8)
        matrix[:, 0] = gap * np.arange(m + 1)
        matrix[0, :] = gap * np.arange(n + 1)
        moves[1:, 0] = 2
        moves[0, 1:] = 3
        for i in range(1, m + 1):
            row_scores = lookup[int(query_codes[i - 1])]
            for j in range(1, n + 1):
                diagonal = matrix[i - 1, j - 1] + row_scores[int(target_codes[j - 1])]
                insertion = matrix[i - 1, j] + gap
                deletion = matrix[i, j - 1] + gap
                best = max(diagonal, insertion, deletion)
                matrix[i, j] = best
                if keep_moves:
                    if best == diagonal:
                        moves[i, j] = 1
                    elif best == insertion:
                        moves[i, j] = 2
                    else:
                        moves[i, j] = 3
        return matrix, moves
