"""Gap penalty models.

The paper's experiments use a *fixed* gap model: a run of ``k`` insertions or
deletions costs ``k * g`` where ``g`` is a single per-symbol gap penalty.  The
paper lists affine gaps (``o + k*e``: an opening charge plus a per-symbol
extension charge) as future work; we implement both so that the extension is
available to downstream users, and so the affine variant can be ablated.

Penalties are expressed as *negative* score contributions: a gap model with
``penalty == -2`` subtracts 2 from the alignment score per gapped symbol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


class GapModel(ABC):
    """Interface shared by all gap penalty models."""

    @property
    @abstractmethod
    def is_affine(self) -> bool:
        """Whether the model distinguishes gap opening from gap extension."""

    @abstractmethod
    def cost(self, length: int) -> int:
        """Total (negative) score contribution of a gap of ``length`` symbols."""

    @property
    @abstractmethod
    def per_symbol(self) -> int:
        """The per-symbol extension penalty (negative)."""

    @property
    @abstractmethod
    def opening(self) -> int:
        """The gap opening penalty (negative; zero for fixed models)."""

    def validate(self) -> None:
        """Reject non-sensical (positive) penalties."""
        if self.per_symbol > 0 or self.opening > 0:
            raise ValueError(
                f"{self!r}: gap penalties must be non-positive score contributions"
            )


#: The most negative fixed gap penalty accepted.  The compiled column step
#: holds scores within +-2**62; a penalty of at least this bound keeps every
#: score the search adds well inside that range, so the compiled and the
#: Python kernels agree instead of the compiled one overflowing.
MIN_GAP_PENALTY = -(2**31)


@dataclass(frozen=True)
class FixedGapModel(GapModel):
    """The paper's fixed gap model: each gapped symbol costs ``penalty``.

    Parameters
    ----------
    penalty:
        Per-symbol gap score contribution; must be negative (e.g. ``-1`` for
        the unit matrix of Table 1, ``-8`` is a conventional choice with
        PAM30) and at least :data:`MIN_GAP_PENALTY`.
    """

    penalty: int = -1

    def __post_init__(self) -> None:
        if self.penalty >= 0:
            raise ValueError("a fixed gap penalty must be negative")
        if self.penalty < MIN_GAP_PENALTY:
            raise ValueError(
                f"a fixed gap penalty must be at least {MIN_GAP_PENALTY}, not {self.penalty}"
            )

    @property
    def is_affine(self) -> bool:
        return False

    @property
    def per_symbol(self) -> int:
        return self.penalty

    @property
    def opening(self) -> int:
        return 0

    def cost(self, length: int) -> int:
        if length < 0:
            raise ValueError("gap length must be non-negative")
        return self.penalty * length


#: The gap model of every engine, index builder and baseline that is not
#: given one, and the CLI's ``--gap`` default.
DEFAULT_GAP_MODEL = FixedGapModel(-8)


@dataclass(frozen=True)
class AffineGapModel(GapModel):
    """Affine gaps: ``open_penalty + length * extend_penalty``.

    The opening charge applies once per gap; the extension charge applies to
    every gapped symbol (so a length-1 gap costs ``open + extend``), matching
    the convention described in Section 4.2 of the paper.
    """

    open_penalty: int = -10
    extend_penalty: int = -1

    def __post_init__(self) -> None:
        if self.open_penalty >= 0 or self.extend_penalty >= 0:
            raise ValueError("affine gap penalties must be negative")

    @property
    def is_affine(self) -> bool:
        return True

    @property
    def per_symbol(self) -> int:
        return self.extend_penalty

    @property
    def opening(self) -> int:
        return self.open_penalty

    def cost(self, length: int) -> int:
        if length < 0:
            raise ValueError("gap length must be non-negative")
        if length == 0:
            return 0
        return self.open_penalty + self.extend_penalty * length
