"""SubstitutionMatrix: pairwise symbol scores used by every aligner.

A substitution matrix assigns an integer score to every pair of alphabet
symbols (Table 1 of the paper shows the "unit" edit-distance example).  The
class below stores the scores both as a character-keyed mapping (for users)
and as a dense NumPy lookup table aligned with the alphabet's integer codes
(for the dynamic-programming kernels and the OASIS column expansion).

Gap penalties are *not* part of the matrix; they are modelled separately by
:mod:`repro.scoring.gaps` because the paper (and BLAST/S-W in general) treats
the gap model as an independent parameter.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sequences.alphabet import Alphabet

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy as np

#: Score of any pair involving the terminal symbol: aligning anything
#: against it is never allowed, and a strongly negative score keeps it out of
#: every optimal alignment (a quarter of the ``int16`` minimum).
TERMINAL_SCORE = -8192

#: The largest magnitude a matrix score may have.  The compiled column step
#: holds scores within +-2**62; with every pair score inside this bound (and
#: every gap penalty inside :data:`~repro.scoring.gaps.MIN_GAP_PENALTY`) a
#: cell would need a query of 2**31 symbols to leave that range, so the
#: compiled and the Python kernels agree.  It also keeps :attr:`lookup` an
#: exact ``int32`` table.
MAX_SCORE_MAGNITUDE = 2**31 - 1


def _checked_score(name: str, value: int) -> int:
    value = int(value)
    if abs(value) > MAX_SCORE_MAGNITUDE:
        raise ValueError(
            f"matrix {name!r}: a score must lie within +-{MAX_SCORE_MAGNITUDE}, not {value}"
        )
    return value


class SubstitutionMatrix:
    """A symmetric pairwise scoring matrix over an :class:`Alphabet`.

    Parameters
    ----------
    name:
        Matrix name, e.g. ``"PAM30"``.
    alphabet:
        The alphabet whose symbols the matrix scores.
    scores:
        A mapping ``{(a, b): score}`` over characters.  Missing pairs default
        to ``default_mismatch``.  The matrix is symmetrised: if only ``(a, b)``
        is given, ``(b, a)`` receives the same score; if both are given they
        must agree.
    default_mismatch:
        Score used for symbol pairs not present in ``scores``.

    Every score lies within +-:data:`MAX_SCORE_MAGNITUDE`.
    """

    def __init__(
        self,
        name: str,
        alphabet: Alphabet,
        scores: Mapping[Tuple[str, str], int],
        default_mismatch: int = -1,
    ):
        self.name = name
        self.alphabet = alphabet
        self.default_mismatch = _checked_score(name, default_mismatch)

        size = alphabet.size_with_terminal
        rows = [[self.default_mismatch] * size for _ in range(size)]

        seen: Dict[Tuple[int, int], int] = {}
        for (a, b), value in scores.items():
            ca, cb = alphabet.code(a), alphabet.code(b)
            value = _checked_score(name, value)
            for key in ((ca, cb), (cb, ca)):
                if key in seen and seen[key] != value:
                    raise ValueError(
                        f"conflicting scores for pair {a!r}/{b!r} in matrix {name!r}: "
                        f"{seen[key]} vs {value}"
                    )
                seen[key] = value
            rows[ca][cb] = value
            rows[cb][ca] = value

        terminal = alphabet.terminal_code
        rows[terminal] = [TERMINAL_SCORE] * size
        for row in rows:
            row[terminal] = TERMINAL_SCORE

        self._rows = rows

    def __eq__(self, other: object) -> bool:
        """Same name, alphabet and scores: a process worker's copy equals its original."""
        if not isinstance(other, SubstitutionMatrix):
            return NotImplemented
        return (self.name, self.alphabet, self.default_mismatch, self._rows) == (
            other.name,
            other.alphabet,
            other.default_mismatch,
            other._rows,
        )

    def __hash__(self) -> int:
        return hash((self.name, self.alphabet))

    def __getstate__(self) -> Dict[str, object]:
        # A pickled matrix (a process task's) carries the rows, not the NumPy
        # view: the worker rebuilds that on first use, if ever.
        state = dict(vars(self))
        state.pop("lookup", None)
        state.pop("packed_rows", None)
        return state

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def score(self, a: str, b: str) -> int:
        """Score for substituting character ``a`` with character ``b``."""
        return self._rows[self.alphabet.code(a.upper())][self.alphabet.code(b.upper())]

    def score_codes(self, code_a: int, code_b: int) -> int:
        """Score lookup by integer codes."""
        return self._rows[code_a][code_b]

    @property
    def rows(self) -> List[List[int]]:
        """The table as one list of ints per symbol code, terminal included
        (``rows[a][b]`` scores code ``a`` against code ``b``; do not mutate)."""
        return self._rows

    @cached_property
    def packed_rows(self) -> List[bytes]:
        """:attr:`rows`, each as native ``int64`` bytes, built once per matrix:
        a query's packed profile is the rows of its codes joined (the
        compiled expansion step reads it)."""
        return [array("q", row).tobytes() for row in self._rows]

    @cached_property
    def lookup(self) -> "np.ndarray":
        """The dense ``(size, size)`` int32 lookup table, read-only.

        Built on first use: the baselines and the dense reference expansion
        read it; the search itself never does.
        """
        import numpy as np

        table = np.array(self._rows, dtype=np.int32)
        table.flags.writeable = False
        return table

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #
    @property
    def max_score(self) -> int:
        """The largest score between two real (non-terminal) symbols."""
        n = len(self.alphabet)
        return max(max(row[:n]) for row in self._rows[:n])

    @property
    def min_score(self) -> int:
        """The smallest score between two real (non-terminal) symbols."""
        n = len(self.alphabet)
        return min(min(row[:n]) for row in self._rows[:n])

    def max_score_for(self, symbol: str) -> int:
        """Best score achievable when aligning ``symbol`` against anything.

        This is exactly the quantity OASIS's heuristic vector needs: the most
        optimistic contribution of one query symbol (Section 3.1).
        """
        code = self.alphabet.code(symbol.upper())
        return self.max_row_scores()[code]

    def max_row_scores(self) -> List[int]:
        """Per-symbol maximum score against any real symbol, terminal row included."""
        n = len(self.alphabet)
        return [max(row[:n]) for row in self._rows]

    def expected_score(self, frequencies: Optional[Mapping[str, float]] = None) -> float:
        """Expected per-position score under background symbol frequencies.

        A usable local-alignment matrix must have a negative expectation
        (otherwise every long random alignment scores well); callers can use
        this to validate custom matrices.  Uniform frequencies are assumed
        when none are supplied.
        """
        n = len(self.alphabet)
        if frequencies is None:
            freq = [1.0 / n] * n
        else:
            freq = [0.0] * n
            for symbol, value in frequencies.items():
                freq[self.alphabet.code(symbol)] = value
            total = sum(freq)
            if total <= 0:
                raise ValueError("background frequencies must sum to a positive value")
            freq = [value / total for value in freq]
        return sum(
            freq[i] * self._rows[i][j] * freq[j] for i in range(n) for j in range(n)
        )

    def is_symmetric(self) -> bool:
        """Whether the matrix is symmetric over real symbols (it always is)."""
        n = len(self.alphabet)
        return all(self._rows[i][j] == self._rows[j][i] for i in range(n) for j in range(i))

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[Tuple[str, str], int]:
        """Export the real-symbol scores as a character-keyed dictionary."""
        result: Dict[Tuple[str, str], int] = {}
        symbols = self.alphabet.symbols
        for i, a in enumerate(symbols):
            for b in symbols[i:]:
                result[(a, b)] = self.score(a, b)
        return result

    def format_table(self, symbols: Optional[Iterable[str]] = None) -> str:
        """Render the matrix as an aligned text table (for reports/tests)."""
        symbols = list(symbols) if symbols is not None else list(self.alphabet.symbols)
        width = max(4, max(len(str(self.score(a, b))) for a in symbols for b in symbols) + 1)
        header = " " * 2 + "".join(f"{s:>{width}}" for s in symbols)
        lines = [header]
        for a in symbols:
            row = f"{a:<2}" + "".join(f"{self.score(a, b):>{width}}" for b in symbols)
            lines.append(row)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SubstitutionMatrix(name={self.name!r}, alphabet={self.alphabet.name!r}, "
            f"max={self.max_score}, min={self.min_score})"
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_match_mismatch(
        cls,
        name: str,
        alphabet: Alphabet,
        match: int,
        mismatch: int,
    ) -> "SubstitutionMatrix":
        """Build a simple match/mismatch matrix (e.g. the paper's unit matrix)."""
        scores = {(s, s): match for s in alphabet.symbols}
        return cls(name, alphabet, scores, default_mismatch=mismatch)

    @classmethod
    def from_rows(
        cls,
        name: str,
        alphabet: Alphabet,
        column_symbols: str,
        rows: Mapping[str, Iterable[int]],
        default_mismatch: int = -1,
    ) -> "SubstitutionMatrix":
        """Build a matrix from row-per-symbol integer listings.

        This mirrors the layout of the NCBI matrix data files: a string of
        column symbols and, for each row symbol, the scores against each
        column symbol in order.
        """
        scores: Dict[Tuple[str, str], int] = {}
        columns = list(column_symbols)
        for row_symbol, values in rows.items():
            values = list(values)
            if len(values) != len(columns):
                raise ValueError(
                    f"row {row_symbol!r} of matrix {name!r} has {len(values)} "
                    f"values, expected {len(columns)}"
                )
            for column_symbol, value in zip(columns, values):
                pair = (row_symbol, column_symbol)
                mirrored = (column_symbol, row_symbol)
                if mirrored in scores and scores[mirrored] != value:
                    raise ValueError(
                        f"matrix {name!r} is not symmetric at {row_symbol}/{column_symbol}"
                    )
                scores[pair] = value
        return cls(name, alphabet, scores, default_mismatch=default_mismatch)
