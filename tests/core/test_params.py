"""Unit tests for MiningParams (Table 2)."""

import pytest

from repro.core.params import DEFAULT_PARAMS, MiningParams, validate_mode
from repro.errors import MiningParameterError


class TestDefaults:
    def test_paper_table2_values(self):
        assert DEFAULT_PARAMS.maxdist == 1.5
        assert DEFAULT_PARAMS.minoccur == 1
        assert DEFAULT_PARAMS.minsup == 2
        assert DEFAULT_PARAMS.max_generation_gap == 1


class TestValidation:
    @pytest.mark.parametrize("maxdist", [-0.5, 0.3, 1.25, float("nan"), float("inf")])
    def test_bad_maxdist(self, maxdist):
        with pytest.raises(MiningParameterError, match="maxdist"):
            MiningParams(maxdist=maxdist)

    @pytest.mark.parametrize("maxdist", [0, 0.5, 1, 1.5, 2, 10.5])
    def test_good_maxdist(self, maxdist):
        assert MiningParams(maxdist=maxdist).maxdist == maxdist

    def test_bad_minoccur(self):
        with pytest.raises(MiningParameterError, match="minoccur"):
            MiningParams(minoccur=0)

    def test_bad_minsup(self):
        with pytest.raises(MiningParameterError, match="minsup"):
            MiningParams(minsup=0)

    def test_bad_gap(self):
        with pytest.raises(MiningParameterError, match="max_generation_gap"):
            MiningParams(max_generation_gap=-1)

    def test_validate_mode_accepts_members_and_values(self):
        from repro.core.distance import DistanceMode

        for mode in DistanceMode:
            assert validate_mode(mode) is mode
            assert validate_mode(mode.value) is mode

    @pytest.mark.parametrize("bad", ["bogus", "", "DIST", 3, None])
    def test_validate_mode_rejects_unknown(self, bad):
        with pytest.raises(MiningParameterError, match="mode must be one of"):
            validate_mode(bad)

    def test_validate_mode_error_is_a_value_error(self):
        # argparse relies on type= callables raising ValueError.
        with pytest.raises(ValueError):
            validate_mode("bogus")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_PARAMS.maxdist = 99  # type: ignore[misc]


class TestMaxLevel:
    def test_paper_defaults(self):
        # maxdist 1.5, gap 1: deepest reachable node is the deep side of
        # a (2, 3) height pair (distance 2 - 1 + 0.5 = 1.5).
        assert MiningParams(maxdist=1.5).max_level == 3

    def test_gap_zero(self):
        # Integer distances only: heights (d+1, d+1).
        assert MiningParams(maxdist=2, max_generation_gap=0).max_level == 3

    def test_distance_zero(self):
        assert MiningParams(maxdist=0, max_generation_gap=0).max_level == 1
        # Gap 1 cannot be spent at distance 0 (0.5 > 0), so still 1.
        assert MiningParams(maxdist=0, max_generation_gap=1).max_level == 1

    def test_wide_gap(self):
        # maxdist 1, gap 2: heights (1, 3) give distance 1 - 1 + 1 = 1.
        assert MiningParams(maxdist=1, max_generation_gap=2).max_level == 3

    def test_max_level_never_admits_excess_distance(self):
        for maxdist in [0, 0.5, 1, 1.5, 2, 3.5]:
            for gap in range(4):
                params = MiningParams(maxdist=maxdist, max_generation_gap=gap)
                level = params.max_level
                # The deepest pair uses heights (level, level - g) for
                # some admissible g; its distance must fit the budget.
                feasible = [
                    (level - g) - 1 + g / 2.0
                    for g in range(gap + 1)
                    if level - g >= 1
                ]
                if level > 0:
                    assert min(feasible) <= maxdist


class TestAdmitsHeights:
    def test_paper_defaults(self):
        params = MiningParams()
        assert params.admits_heights(1, 1)     # siblings
        assert params.admits_heights(1, 2)     # aunt-niece
        assert params.admits_heights(2, 3)     # fc once removed (1.5)
        assert not params.admits_heights(3, 3)  # 2.0 > maxdist
        assert not params.admits_heights(1, 3)  # gap 2 > 1
        assert not params.admits_heights(0, 1)  # ancestor pair

    def test_horizontal_limit(self):
        params = MiningParams(maxdist=5.0, max_height=1)
        assert params.admits_heights(1, 1)
        assert params.admits_heights(1, 2)
        assert not params.admits_heights(2, 2)

    def test_invalid_max_height(self):
        with pytest.raises(MiningParameterError, match="max_height"):
            MiningParams(max_height=0)

    def test_max_level_capped_by_height(self):
        # With max_height 1 and gap 1, the deepest reachable node is 2.
        assert MiningParams(maxdist=5.0, max_height=1).max_level == 2
