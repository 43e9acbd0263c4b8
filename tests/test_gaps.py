"""Unit tests for repro.scoring.gaps."""

import inspect

import pytest

from repro.scoring.gaps import DEFAULT_GAP_MODEL, AffineGapModel, FixedGapModel


class TestFixedGapModel:
    def test_cost_is_linear(self):
        model = FixedGapModel(-2)
        assert model.cost(0) == 0
        assert model.cost(1) == -2
        assert model.cost(5) == -10

    def test_properties(self):
        model = FixedGapModel(-3)
        assert not model.is_affine
        assert model.per_symbol == -3
        assert model.opening == 0

    def test_positive_penalty_rejected(self):
        with pytest.raises(ValueError):
            FixedGapModel(1)
        with pytest.raises(ValueError):
            FixedGapModel(0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            FixedGapModel(-1).cost(-1)

    def test_validate_passes(self):
        FixedGapModel(-1).validate()

    def test_frozen(self):
        model = FixedGapModel(-1)
        with pytest.raises(Exception):
            model.penalty = -2  # type: ignore[misc]


class TestAffineGapModel:
    def test_cost_includes_opening(self):
        model = AffineGapModel(open_penalty=-10, extend_penalty=-1)
        assert model.cost(0) == 0
        assert model.cost(1) == -11
        assert model.cost(4) == -14

    def test_properties(self):
        model = AffineGapModel(-5, -2)
        assert model.is_affine
        assert model.per_symbol == -2
        assert model.opening == -5

    def test_positive_penalties_rejected(self):
        with pytest.raises(ValueError):
            AffineGapModel(1, -1)
        with pytest.raises(ValueError):
            AffineGapModel(-1, 0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            AffineGapModel(-1, -1).cost(-2)

    def test_affine_never_cheaper_than_equivalent_fixed_for_long_gaps(self):
        fixed = FixedGapModel(-3)
        affine = AffineGapModel(open_penalty=-4, extend_penalty=-1)
        # For long gaps the affine model (with milder extension) costs less.
        assert affine.cost(10) > fixed.cost(10)
        # For a single-symbol gap the affine model costs more.
        assert affine.cost(1) < fixed.cost(1)


def _callables_with_a_default_gap():
    from repro.baselines.blast import BlastLikeSearch
    from repro.baselines.smith_waterman import SmithWatermanAligner
    from repro.core.engine import OasisEngine
    from repro.core.oasis import OasisSearch
    from repro.sharding.builder import ShardedIndexBuilder
    from repro.sharding.engine import ShardedEngine

    return {
        "OasisEngine": OasisEngine.__init__,
        "OasisEngine.build": OasisEngine.build,
        "OasisEngine.build_on_disk": OasisEngine.build_on_disk,
        "OasisSearch": OasisSearch.__init__,
        "ShardedIndexBuilder": ShardedIndexBuilder.__init__,
        "ShardedEngine": ShardedEngine.__init__,
        "ShardedEngine.build_on_disk": ShardedEngine.build_on_disk,
        "SmithWatermanAligner": SmithWatermanAligner.__init__,
        "BlastLikeSearch": BlastLikeSearch.__init__,
    }


class TestDefaultGapModel:
    """One default gap: every signature that takes a gap model defaults to the same one."""

    def test_is_the_cli_default(self):
        from repro.cli import DEFAULT_GAP

        assert DEFAULT_GAP_MODEL == FixedGapModel(-8)
        assert DEFAULT_GAP == DEFAULT_GAP_MODEL.per_symbol

    @pytest.mark.parametrize("name", sorted(_callables_with_a_default_gap()))
    def test_every_signature_defaults_to_it(self, name):
        signature = inspect.signature(_callables_with_a_default_gap()[name])
        assert signature.parameters["gap_model"].default is DEFAULT_GAP_MODEL
