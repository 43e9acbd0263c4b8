"""The reference answers: exhaustive Smith-Waterman, written apart from the program.

Every hit list the benchmark times is compared with the list computed here.
The recurrence is the paper's Section 2.2 with a fixed gap penalty,

    H[i][j] = max(0, H[i-1][j-1] + S(q_i, t_j), H[i-1][j] + g, H[i][j-1] + g)

filled one *query row* at a time over every database sequence at once (the
sequences sit in the rows of one padded matrix), the dependency along the
target resolved with a running maximum.  It shares no code with ``repro.core``
or with ``repro.baselines.smith_waterman``, which scans column by column; the
traced run compares the two on a few queries (``baselines.sw_over_oasis_ratio``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

HitList = List[Tuple[str, int]]

_DEAD = -(10**6)


class Oracle:
    """Best local-alignment score of a query against each database sequence."""

    def __init__(
        self,
        records: Sequence[Tuple[str, str]],
        symbols: str,
        scores: Dict[Tuple[str, str], int],
        gap: int,
    ):
        self.identifiers = [identifier for identifier, _ in records]
        self.symbols = symbols
        self.gap = gap
        width = max(len(text) for _, text in records)
        pad = len(symbols)
        code = {symbol: index for index, symbol in enumerate(symbols)}
        self.targets = np.full((len(records), width), pad, dtype=np.int64)
        for row, (_, text) in enumerate(records):
            self.targets[row, : len(text)] = [code[symbol] for symbol in text]
        # substitution[a, b] = S(a, b); the padding column can never be matched.
        self.substitution = np.full((len(symbols), pad + 1), _DEAD, dtype=np.int64)
        for (a, b), value in scores.items():
            if a in code and b in code:
                self.substitution[code[a], code[b]] = value
        self.code = code
        self.ramp = np.arange(width, dtype=np.int64) * gap

    def best_scores(self, query: str) -> np.ndarray:
        gap = self.gap
        previous = np.zeros(self.targets.shape, dtype=np.int64)
        best = np.zeros(len(self.identifiers), dtype=np.int64)
        shifted = np.zeros_like(previous)
        for symbol in query.upper():
            match = self.substitution[self.code[symbol]][self.targets]
            shifted[:, 1:] = previous[:, :-1]
            current = np.maximum(shifted + match, previous + gap)
            np.maximum(current, 0, out=current)
            # H[j] = max_k<=j (current[k] + gap * (j - k))
            current -= self.ramp
            np.maximum.accumulate(current, axis=1, out=current)
            current += self.ramp
            np.maximum(best, current.max(axis=1), out=best)
            previous = current
        return best

    def hits(self, query: str, min_score: int) -> HitList:
        """``(identifier, score)`` of every sequence reaching ``min_score``,
        strongest first, ties by identifier -- the program's canonical order."""
        scores = self.best_scores(query)
        found = [
            (identifier, int(score))
            for identifier, score in zip(self.identifiers, scores)
            if score >= min_score
        ]
        found.sort(key=lambda hit: (-hit[1], hit[0]))
        return found


def parse_fasta(text: str) -> List[Tuple[str, str]]:
    """The benchmark's own FASTA reader (identifier = first word of the header)."""
    records: List[Tuple[str, List[str]]] = []
    for line in text.splitlines():
        if line.startswith(">"):
            records.append((line[1:].split()[0], []))
        elif line.strip():
            records[-1][1].append(line.strip())
    return [(identifier, "".join(parts)) for identifier, parts in records]
