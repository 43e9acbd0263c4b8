"""Seeded inputs: FASTA text and query lists, made without importing ``repro``.

The generators are frozen here, not taken from ``repro.datagen``, so that a
later change to the program cannot change the benchmark's inputs.  The seed
drives *content* only.  Sizes -- how many families, members, singletons and
contigs, how long each is, how long each query is and which family it is cut
from -- are fixed schedules: with sizes drawn from the seed, the same code
measured 127-187 ms ``query_p50_ms`` over six seeds, with them fixed the
spread that is left comes from residue content alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: SWISS-PROT background composition, rounded.
AMINO_ACID_FREQUENCIES: Dict[str, float] = {
    "A": 0.0826, "R": 0.0553, "N": 0.0406, "D": 0.0546, "C": 0.0137,
    "Q": 0.0393, "E": 0.0674, "G": 0.0708, "H": 0.0227, "I": 0.0593,
    "L": 0.0965, "K": 0.0582, "M": 0.0241, "F": 0.0386, "P": 0.0472,
    "S": 0.0660, "T": 0.0535, "W": 0.0110, "Y": 0.0292, "V": 0.0687,
}
#: Roughly the Drosophila AT bias.
NUCLEOTIDE_FREQUENCIES: Dict[str, float] = {"A": 0.29, "C": 0.21, "G": 0.21, "T": 0.29}

# SWISS-PROT-like database: (ancestor length, members) per family, then
# singleton lengths.  About 11k residues in 44 sequences.  Each family's
# members are spread evenly through the file, as accession order spreads them
# in a real database, so every shard of a sharded index holds some of each.
PROTEIN_FAMILIES: Tuple[Tuple[int, int], ...] = (
    (100, 6), (160, 8), (220, 4), (280, 7), (340, 5), (400, 6),
)
PROTEIN_SINGLETONS: Tuple[int, ...] = (7, 77, 148, 218, 289, 359, 430, 500)
# ProClass motifs span 6-56 residues with a mean near 16.  (length, count):
# the classes are far enough apart in cost that the median query is always
# one of the thirty-two 14-mers and the 90th percentile one of the ten
# 36-mers, so neither percentile jumps between lengths from seed to seed.
PROTEIN_QUERY_CLASSES: Tuple[Tuple[int, int], ...] = (
    (6, 6), (10, 6), (14, 32), (22, 4), (36, 10), (56, 2),
)
RANDOM_QUERY_EVERY = 10              # every tenth query is an unrelated peptide

# Drosophila-like genome: contig lengths, repeat element lengths.
DNA_CONTIGS: Tuple[int, ...] = (1500, 1900, 2300, 2700, 3100, 3500)
DNA_REPEATS: Tuple[int, ...] = (60, 110, 160, 210, 260, 300)
DNA_REPEAT_DENSITY = 0.2
DNA_QUERY_CLASSES: Tuple[Tuple[int, int], ...] = (
    (40, 12), (60, 12), (80, 14), (100, 12), (120, 10),
)


@dataclass(frozen=True)
class Inputs:
    """What one workload run feeds the program: text in, nothing else."""

    fasta: str
    queries: Tuple[str, ...]
    residues: int


def _draw(rng: random.Random, frequencies: Dict[str, float], length: int) -> str:
    return "".join(rng.choices(list(frequencies), weights=list(frequencies.values()), k=length))


def _fasta(records: List[Tuple[str, str]]) -> str:
    lines: List[str] = []
    for identifier, text in records:
        lines.append(f">{identifier}")
        lines.extend(text[i : i + 60] for i in range(0, len(text), 60))
    return "\n".join(lines) + "\n"


def _mutated(rng: random.Random, text: str, rate: float, symbols: str) -> str:
    return "".join(rng.choice(symbols) if rng.random() < rate else c for c in text)


def _substituted(rng: random.Random, text: str, count: int, symbols: str) -> str:
    """``text`` with exactly ``count`` positions changed to a different symbol."""
    out = list(text)
    for position in rng.sample(range(len(out)), count):
        out[position] = rng.choice(symbols.replace(out[position], ""))
    return "".join(out)


def _class_lengths(classes: Tuple[Tuple[int, int], ...], count: int) -> List[int]:
    """The schedule's lengths, thinned evenly to ``count`` for ``--quick``."""
    lengths = [length for length, copies in classes for _ in range(copies)]
    return [lengths[i * len(lengths) // count] for i in range(count)]


def _family_member(rng: random.Random, ancestor: str, core: Tuple[int, int]) -> str:
    """A mutated copy: 30% substitutions and 2% short indels outside the
    conserved core, which every member carries intact."""
    symbols = "".join(AMINO_ACID_FREQUENCIES)
    out: List[str] = []
    position = 0
    while position < len(ancestor):
        in_core = core[0] <= position < core[1]
        residue = ancestor[position]
        if not in_core and rng.random() < 0.30:
            residue = rng.choice(symbols)
        if not in_core and rng.random() < 0.02:
            if rng.random() < 0.5:
                position += rng.randint(1, 3)
                continue
            residue += _draw(rng, AMINO_ACID_FREQUENCIES, rng.randint(1, 3))
        out.append(residue)
        position += 1
    return "".join(out)


def protein_inputs(seed: int, query_count: int = 60) -> Inputs:
    rng = random.Random(seed * 7919 + 1)
    placed: List[Tuple[float, str, str]] = []      # (position in the file, id, text)
    families: List[Tuple[str, Tuple[int, int]]] = []
    for index, (length, members) in enumerate(PROTEIN_FAMILIES):
        ancestor = _draw(rng, AMINO_ACID_FREQUENCIES, length)
        core_length = min(20 + 8 * index, length // 2)
        start = rng.randint(0, length - core_length)
        core = (start, start + core_length)
        families.append((ancestor, core))
        for member in range(members):
            text = _family_member(rng, ancestor, core)
            placed.append(((member + 0.5) / members, f"FAM{index:04d}_{member:02d}", text))
    for index, length in enumerate(PROTEIN_SINGLETONS):
        text = _draw(rng, AMINO_ACID_FREQUENCIES, length)
        placed.append(((index + 0.5) / len(PROTEIN_SINGLETONS), f"SGL{index:05d}", text))
    records = [(identifier, text) for _, identifier, text in sorted(placed)]

    lengths = _class_lengths(PROTEIN_QUERY_CLASSES, query_count)
    rng.shuffle(lengths)
    queries: List[str] = []
    for index, length in enumerate(lengths):
        if index % RANDOM_QUERY_EVERY == RANDOM_QUERY_EVERY - 1:
            queries.append(_draw(rng, AMINO_ACID_FREQUENCIES, length))
            continue
        ancestor, core = families[index % len(families)]
        # Motifs come from the conserved core; one longer than the core is cut
        # from the whole ancestor.
        source = ancestor[core[0] : core[1]] if length <= core[1] - core[0] else ancestor
        start = rng.randint(0, len(source) - length)
        queries.append(source[start : start + length])
    return Inputs(_fasta(records), tuple(queries), sum(len(t) for _, t in records))


def dna_inputs(seed: int, query_count: int = 60) -> Inputs:
    rng = random.Random(seed * 7919 + 2)
    repeats = [_draw(rng, NUCLEOTIDE_FREQUENCIES, length) for length in DNA_REPEATS]
    records: List[Tuple[str, str]] = []
    for index, target in enumerate(DNA_CONTIGS):
        pieces: List[str] = []
        produced = 0
        while produced < target:
            if rng.random() < DNA_REPEAT_DENSITY:
                piece = _mutated(rng, rng.choice(repeats), 0.05, "ACGT")
            else:
                piece = _draw(rng, NUCLEOTIDE_FREQUENCIES, rng.randint(100, 500))
            pieces.append(piece)
            produced += len(piece)
        records.append((f"contig{index:04d}", "".join(pieces)[:target]))

    lengths = _class_lengths(DNA_QUERY_CLASSES, query_count)
    rng.shuffle(lengths)
    queries: List[str] = []
    for index, length in enumerate(lengths):
        contig = records[index % len(records)][1]
        start = rng.randint(0, len(contig) - length)
        queries.append(_substituted(rng, contig[start : start + length], round(0.06 * length), "ACGT"))
    return Inputs(_fasta(records), tuple(queries), sum(len(t) for _, t in records))
