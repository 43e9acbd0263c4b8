"""Standard substitution matrices.

The paper's experiments use the *unit* edit-distance matrix (Table 1) for the
worked example and PAM30 for the SWISS-PROT protein workload ("the popular
choice for short queries").  This module provides:

* :func:`unit_matrix` -- the match/mismatch matrix of Table 1 for any alphabet;
* :func:`pam30`, :func:`pam70` -- harsh short-query protein matrices;
* :func:`blosum62`, :func:`blosum45` -- the general-purpose protein matrices;
* :func:`nucleotide_matrix` -- a simple DNA match/mismatch matrix.

The protein matrices are transcribed from the NCBI toolkit data files.  The
BLOSUM62 table is bit-exact; the PAM30/PAM70/BLOSUM45 tables follow the NCBI
values (high positive diagonals, strongly negative off-diagonals, negative
expected score) and are validated for symmetry and negative expectation by the
test-suite, which is all any algorithm in this library depends on.  Pairs
involving the ambiguity codes ``B Z X U`` fall back to the matrix's default
mismatch score.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List

from repro.sequences.alphabet import Alphabet, DNA_ALPHABET, PROTEIN_ALPHABET
from repro.scoring.matrix import SubstitutionMatrix

def _protein_matrix(name: str, table: str, default_mismatch: int) -> SubstitutionMatrix:
    """Build a protein matrix from a table in the NCBI data-file layout: a
    header of column symbols, then one row symbol and its scores per line.

    The tables are text, parsed when their matrix is first asked for: a
    module of 1 600 integer literals would cost every cold command ~5 ms to
    compile, for the one matrix it uses.
    """
    header, *lines = table.split("\n")[1:-1]
    rows: Dict[str, List[int]] = {}
    for line in lines:
        symbol, *values = line.split()
        rows[symbol] = [int(value) for value in values]
    return SubstitutionMatrix.from_rows(
        name,
        PROTEIN_ALPHABET,
        "".join(header.split()),
        rows,
        default_mismatch=default_mismatch,
    )


@lru_cache(maxsize=None)
def unit_matrix(alphabet: Alphabet = DNA_ALPHABET) -> SubstitutionMatrix:
    """The "unit" edit-distance matrix of Table 1: +1 match, -1 otherwise."""
    return SubstitutionMatrix.from_match_mismatch("unit", alphabet, match=1, mismatch=-1)


@lru_cache(maxsize=None)
def nucleotide_matrix(match: int = 1, mismatch: int = -3) -> SubstitutionMatrix:
    """A BLASTN-style nucleotide matrix (default +1/-3)."""
    return SubstitutionMatrix.from_match_mismatch(
        f"nuc(+{match}/{mismatch})", DNA_ALPHABET, match=match, mismatch=mismatch
    )


# --------------------------------------------------------------------------- #
# BLOSUM62 (bit-exact NCBI values)
# --------------------------------------------------------------------------- #
_BLOSUM62 = """
    A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V
A   4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0
R  -1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3
N  -2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3
D  -2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3
C   0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1
Q  -1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2
E  -1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2
G   0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3
H  -2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3
I  -1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3
L  -1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1
K  -1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2
M  -1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1
F  -2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1
P  -1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2
S   1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2
T   0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0
W  -3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3
Y  -2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1
V   0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4
"""


@lru_cache(maxsize=None)
def blosum62() -> SubstitutionMatrix:
    """The BLOSUM62 matrix (the BLAST default for general protein searches)."""
    return _protein_matrix("BLOSUM62", _BLOSUM62, default_mismatch=-1)


# --------------------------------------------------------------------------- #
# PAM30 (the matrix used for the paper's SWISS-PROT experiments)
# --------------------------------------------------------------------------- #
_PAM30 = """
     A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
A    6  -7  -4  -3  -6  -4  -2  -2  -7  -5  -6  -7  -5  -8  -2   0  -1 -13  -8  -2
R   -7   8  -6 -10  -8  -2  -9  -9  -2  -5  -8   0  -4  -9  -4  -3  -6  -2 -10  -8
N   -4  -6   8   2 -11  -3  -2  -3   0  -5  -7  -1  -9  -9  -6   0  -2  -8  -4  -8
D   -3 -10   2   8 -14  -2   2  -3  -4  -7 -12  -4 -11 -15  -8  -4  -5 -15 -11  -8
C   -6  -8 -11 -14  10 -14 -14  -9  -7  -6 -15 -14 -13 -13  -8  -3  -8 -15  -4  -6
Q   -4  -2  -3  -2 -14   8   1  -7   1  -8  -5  -3  -4 -13  -3  -5  -5 -13 -12  -7
E   -2  -9  -2   2 -14   1   8  -4  -5  -5  -9  -4  -7 -14  -5  -4  -6 -17  -8  -6
G   -2  -9  -3  -3  -9  -7  -4   6  -9 -11 -10  -7  -8  -9  -6  -2  -6 -15 -14  -5
H   -7  -2   0  -4  -7   1  -5  -9   9  -9  -6  -6 -10  -6  -4  -6  -7  -7  -3  -6
I   -5  -5  -5  -7  -6  -8  -5 -11  -9   8  -1  -6  -1  -2  -8  -7  -2 -14  -6   2
L   -6  -8  -7 -12 -15  -5  -9 -10  -6  -1   7  -8   1  -3  -7  -8  -7  -6  -7  -2
K   -7   0  -1  -4 -14  -3  -4  -7  -6  -6  -8   7  -2 -14  -6  -4  -3 -12  -9  -9
M   -5  -4  -9 -11 -13  -4  -7  -8 -10  -1   1  -2  11  -4  -8  -5  -4 -13 -11  -1
F   -8  -9  -9 -15 -13 -13 -14  -9  -6  -2  -3 -14  -4   9 -10  -6  -9  -4   2  -8
P   -2  -4  -6  -8  -8  -3  -5  -6  -4  -8  -7  -6  -8 -10   8  -2  -4 -14 -13  -6
S    0  -3   0  -4  -3  -5  -4  -2  -6  -7  -8  -4  -5  -6  -2   6   0  -5  -7  -6
T   -1  -6  -2  -5  -8  -5  -6  -6  -7  -2  -7  -3  -4  -9  -4   0   7 -13  -6  -3
W  -13  -2  -8 -15 -15 -13 -17 -15  -7 -14  -6 -12 -13  -4 -14  -5 -13  13  -5 -15
Y   -8 -10  -4 -11  -4 -12  -8 -14  -3  -6  -7  -9 -11   2 -13  -7  -6  -5  10  -7
V   -2  -8  -8  -8  -6  -7  -6  -5  -6   2  -2  -9  -1  -8  -6  -6  -3 -15  -7   7
"""


@lru_cache(maxsize=None)
def pam30() -> SubstitutionMatrix:
    """PAM30: the short-query protein matrix used in the paper's experiments."""
    return _protein_matrix("PAM30", _PAM30, default_mismatch=-9)


# --------------------------------------------------------------------------- #
# PAM70 (a milder short-query matrix; "we also experimented with other
# substitution matrices, which produced similar results")
# --------------------------------------------------------------------------- #
_PAM70 = """
     A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
A    5  -4  -2  -1  -4  -2  -1   0  -4  -2  -4  -4  -3  -6   0   1   1  -9  -5  -1
R   -4   8  -3  -6  -5   0  -5  -6   0  -3  -6   2  -2  -7  -2  -1  -4   0  -7  -5
N   -2  -3   6   3  -7  -1   0  -1   1  -3  -5   0  -5  -6  -3   1   0  -6  -3  -5
D   -1  -6   3   6  -9   0   3  -1  -1  -5  -8  -2  -7 -10  -4  -1  -2 -10  -7  -5
C   -4  -5  -7  -9   9  -9  -9  -6  -5  -4 -10  -9  -9  -8  -5  -1  -5 -11  -2  -4
Q   -2   0  -1   0  -9   7   2  -4   2  -5  -3  -1  -2  -9  -1  -3  -3  -8  -8  -4
E   -1  -5   0   3  -9   2   6  -2  -2  -4  -6  -2  -4  -9  -3  -2  -3 -11  -6  -4
G    0  -6  -1  -1  -6  -4  -2   6  -6  -6  -7  -5  -6  -7  -3   0  -3 -10  -9  -3
H   -4   0   1  -1  -5   2  -2  -6   8  -6  -4  -3  -6  -4  -2  -3  -4  -5  -1  -4
I   -2  -3  -3  -5  -4  -5  -4  -6  -6   7   1  -4   1   0  -5  -4  -1  -9  -4   3
L   -4  -6  -5  -8 -10  -3  -6  -7  -4   1   6  -5   2  -1  -5  -6  -4  -4  -4   0
K   -4   2   0  -2  -9  -1  -2  -5  -3  -4  -5   6   0  -9  -4  -2  -1  -7  -7  -6
M   -3  -2  -5  -7  -9  -2  -4  -6  -6   1   2   0  10  -2  -5  -3  -2  -8  -7   0
F   -6  -7  -6 -10  -8  -9  -9  -7  -4   0  -1  -9  -2   8  -7  -4  -6  -2   4  -5
P    0  -2  -3  -4  -5  -1  -3  -3  -2  -5  -5  -4  -5  -7   7   0  -2  -9  -9  -3
S    1  -1   1  -1  -1  -3  -2   0  -3  -4  -6  -2  -3  -4   0   5   2  -3  -5  -3
T    1  -4   0  -2  -5  -3  -3  -3  -4  -1  -4  -1  -2  -6  -2   2   6  -8  -4  -1
W   -9   0  -6 -10 -11  -8 -11 -10  -5  -9  -4  -7  -8  -2  -9  -3  -8  13  -3 -10
Y   -5  -7  -3  -7  -2  -8  -6  -9  -1  -4  -4  -7  -7   4  -9  -5  -4  -3   9  -5
V   -1  -5  -5  -5  -4  -4  -4  -3  -4   3   0  -6   0  -5  -3  -3  -1 -10  -5   6
"""


@lru_cache(maxsize=None)
def pam70() -> SubstitutionMatrix:
    """PAM70: a short-query protein matrix, milder than PAM30."""
    return _protein_matrix("PAM70", _PAM70, default_mismatch=-6)


# --------------------------------------------------------------------------- #
# BLOSUM45 (a distant-homology protein matrix)
# --------------------------------------------------------------------------- #
_BLOSUM45 = """
    A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V
A   5 -2 -1 -2 -1 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -2 -2  0
R  -2  7  0 -1 -3  1  0 -2  0 -3 -2  3 -1 -2 -2 -1 -1 -2 -1 -2
N  -1  0  6  2 -2  0  0  0  1 -2 -3  0 -2 -2 -2  1  0 -4 -2 -3
D  -2 -1  2  7 -3  0  2 -1  0 -4 -3  0 -3 -4 -1  0 -1 -4 -2 -3
C  -1 -3 -2 -3 12 -3 -3 -3 -3 -3 -2 -3 -2 -2 -4 -1 -1 -5 -3 -1
Q  -1  1  0  0 -3  6  2 -2  1 -2 -2  1  0 -4 -1  0 -1 -2 -1 -3
E  -1  0  0  2 -3  2  6 -2  0 -3 -2  1 -2 -3  0  0 -1 -3 -2 -3
G   0 -2  0 -1 -3 -2 -2  7 -2 -4 -3 -2 -2 -3 -2  0 -2 -2 -3 -3
H  -2  0  1  0 -3  1  0 -2 10 -3 -2 -1  0 -2 -2 -1 -2 -3  2 -3
I  -1 -3 -2 -4 -3 -2 -3 -4 -3  5  2 -3  2  0 -2 -2 -1 -2  0  3
L  -1 -2 -3 -3 -2 -2 -2 -3 -2  2  5 -3  2  1 -3 -3 -1 -2  0  1
K  -1  3  0  0 -3  1  1 -2 -1 -3 -3  5 -1 -3 -1 -1 -1 -2 -1 -2
M  -1 -1 -2 -3 -2  0 -2 -2  0  2  2 -1  6  0 -2 -2 -1 -2  0  1
F  -2 -2 -2 -4 -2 -4 -3 -3 -2  0  1 -3  0  8 -3 -2 -1  1  3  0
P  -1 -2 -2 -1 -4 -1  0 -2 -2 -2 -3 -1 -2 -3  9 -1 -1 -3 -3 -3
S   1 -1  1  0 -1  0  0  0 -1 -2 -3 -1 -2 -2 -1  4  2 -4 -2 -1
T   0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -1 -1  2  5 -3 -1  0
W  -2 -2 -4 -4 -5 -2 -3 -2 -3 -2 -2 -2 -2  1 -3 -4 -3 15  3 -3
Y  -2 -1 -2 -2 -3 -1 -2 -3  2  0  0 -1  0  3 -3 -2 -1  3  8 -1
V   0 -2 -3 -3 -1 -3 -3 -3 -3  3  1 -2  1  0 -3 -1  0 -3 -1  5
"""


@lru_cache(maxsize=None)
def blosum45() -> SubstitutionMatrix:
    """BLOSUM45: a distant-homology protein matrix."""
    return _protein_matrix("BLOSUM45", _BLOSUM45, default_mismatch=-1)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Callable[[], SubstitutionMatrix]] = {
    "PAM30": pam30,
    "PAM70": pam70,
    "BLOSUM62": blosum62,
    "BLOSUM45": blosum45,
}


def available_matrices() -> List[str]:
    """Names of all built-in protein matrices."""
    return sorted(_REGISTRY)


def load_matrix(name: str) -> SubstitutionMatrix:
    """Look up a built-in protein matrix by (case-insensitive) name."""
    try:
        return _REGISTRY[name.upper()]()
    except KeyError:
        raise KeyError(
            f"unknown matrix {name!r}; available: {', '.join(available_matrices())}"
        ) from None
