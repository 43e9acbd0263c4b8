"""SWISS-PROT-like synthetic protein database generator.

The experiments need a protein database with three properties of the real
SWISS-PROT data set:

1. realistic residue composition (so substitution-matrix statistics and
   E-values behave normally),
2. a wide range of sequence lengths (SWISS-PROT spans 7 to 2048 residues),
3. *family structure*: groups of sequences that share recognisable conserved
   regions, so that short motif queries drawn from one family member find
   strong local alignments in its relatives (this is what makes the ProClass
   workload meaningful).

:class:`SwissProtLikeGenerator` produces families by evolving mutated copies
of an ancestral sequence (point substitutions plus occasional short indels)
while keeping a designated *conserved core* nearly intact, and mixes in
unrelated singleton sequences.  Sizes default to laptop-scale (the paper's
40 M residues are far beyond a pure-Python suffix tree) but every knob is
exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.datagen.random_source import AMINO_ACID_FREQUENCIES, RandomSource
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence, SequenceRecord

_AMINO_ACIDS = "".join(AMINO_ACID_FREQUENCIES.keys())


@dataclass
class FamilySpec:
    """Internal description of one generated protein family."""

    name: str
    ancestor: str
    core_start: int
    core_end: int
    member_identifiers: List[str]


class SwissProtLikeGenerator:
    """Generate a protein database with family structure.

    Parameters
    ----------
    seed:
        Seed for the deterministic random source.
    family_count:
        Number of protein families.
    members_per_family:
        ``(low, high)`` range of members per family.
    ancestor_length:
        ``(low, high)`` range of ancestral sequence lengths.
    singleton_count:
        Number of unrelated sequences mixed in.
    singleton_length:
        ``(low, high)`` range of singleton lengths.
    substitution_rate:
        Per-residue probability of a point substitution outside the conserved
        core when deriving a family member.
    core_substitution_rate:
        Per-residue substitution probability inside the conserved core
        (kept low so motifs stay recognisable).
    indel_rate:
        Per-residue probability of opening a short indel outside the core.
    core_length:
        ``(low, high)`` range of conserved-core lengths.
    """

    def __init__(
        self,
        seed: int = 0,
        family_count: int = 25,
        members_per_family: tuple = (3, 8),
        ancestor_length: tuple = (80, 400),
        singleton_count: int = 40,
        singleton_length: tuple = (7, 500),
        substitution_rate: float = 0.30,
        core_substitution_rate: float = 0.05,
        indel_rate: float = 0.02,
        core_length: tuple = (20, 60),
        name: str = "swissprot-like",
    ):
        if family_count < 0 or singleton_count < 0:
            raise ValueError("counts must be non-negative")
        if family_count == 0 and singleton_count == 0:
            raise ValueError("the generated database would be empty")
        self.seed = seed
        self.family_count = family_count
        self.members_per_family = members_per_family
        self.ancestor_length = ancestor_length
        self.singleton_count = singleton_count
        self.singleton_length = singleton_length
        self.substitution_rate = substitution_rate
        self.core_substitution_rate = core_substitution_rate
        self.indel_rate = indel_rate
        self.core_length = core_length
        self.name = name
        #: Populated by :meth:`generate`; used by the motif workload generator.
        self.families: List[FamilySpec] = []

    # ------------------------------------------------------------------ #
    def generate(self) -> SequenceDatabase:
        """Generate the database (deterministic for a given configuration)."""
        rng = RandomSource(self.seed)
        database = SequenceDatabase(alphabet=PROTEIN_ALPHABET, name=self.name)
        self.families = []

        for family_index in range(self.family_count):
            family_rng = rng.spawn(family_index)
            family = self._generate_family(family_index, family_rng, database)
            self.families.append(family)

        singleton_rng = rng.spawn(10**6)
        for singleton_index in range(self.singleton_count):
            length = singleton_rng.length_from_range(*self.singleton_length)
            text = singleton_rng.weighted_sequence(AMINO_ACID_FREQUENCIES, length)
            database.add(
                SequenceRecord(
                    identifier=f"SGL{singleton_index:05d}",
                    sequence=Sequence(text, PROTEIN_ALPHABET),
                    description="unrelated singleton",
                    family=None,
                )
            )
        return database

    # ------------------------------------------------------------------ #
    def _generate_family(
        self, family_index: int, rng: RandomSource, database: SequenceDatabase
    ) -> FamilySpec:
        ancestor_length = rng.length_from_range(*self.ancestor_length)
        ancestor = rng.weighted_sequence(AMINO_ACID_FREQUENCIES, ancestor_length)

        core_length = min(
            rng.length_from_range(*self.core_length), max(4, ancestor_length // 2)
        )
        core_start = rng.randint(0, max(0, ancestor_length - core_length))
        core_end = core_start + core_length

        family_name = f"FAM{family_index:04d}"
        member_count = rng.randint(*self.members_per_family)
        identifiers: List[str] = []
        for member_index in range(member_count):
            text = self._mutate(ancestor, core_start, core_end, rng)
            identifier = f"{family_name}_{member_index:02d}"
            identifiers.append(identifier)
            database.add(
                SequenceRecord(
                    identifier=identifier,
                    sequence=Sequence(text, PROTEIN_ALPHABET),
                    description=f"member {member_index} of {family_name}",
                    family=family_name,
                )
            )
        return FamilySpec(
            name=family_name,
            ancestor=ancestor,
            core_start=core_start,
            core_end=core_end,
            member_identifiers=identifiers,
        )

    def _mutate(self, ancestor: str, core_start: int, core_end: int, rng: RandomSource) -> str:
        """Derive one family member from the ancestor."""
        result: List[str] = []
        position = 0
        while position < len(ancestor):
            in_core = core_start <= position < core_end
            substitution_rate = (
                self.core_substitution_rate if in_core else self.substitution_rate
            )
            residue = ancestor[position]
            if rng.random() < substitution_rate:
                residue = rng.choice(_AMINO_ACIDS)
            if not in_core and rng.random() < self.indel_rate:
                if rng.random() < 0.5:
                    # Deletion of a short stretch.
                    position += rng.randint(1, 3)
                    continue
                # Insertion of a short stretch.
                result.append(residue)
                result.append(rng.weighted_sequence(AMINO_ACID_FREQUENCIES, rng.randint(1, 3)))
                position += 1
                continue
            result.append(residue)
            position += 1
        text = "".join(result)
        # Guard against the (very unlikely) degenerate case of an empty member.
        if not text:
            text = rng.weighted_sequence(AMINO_ACID_FREQUENCIES, 7)
        return text

    # ------------------------------------------------------------------ #
    def conserved_core(self, family_index: int) -> Optional[str]:
        """The ancestral conserved core of one family (None before generate)."""
        if not self.families:
            return None
        family = self.families[family_index]
        return family.ancestor[family.core_start : family.core_end]
