import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from fairline import (
    ALT_OBJECTIVES,
    FacilityOutcome,
    IIF1,
    IIF2,
    MAGC,
    MTGC,
    ObjectiveSpec,
    agent_cost,
    alt,
    build_profile,
    eval_outcome,
    eval_point,
    nrm,
    parse_objective,
    rm,
)
from fairline.families import (
    single_group_center_mass,
    singleton_pair,
    three_group_center_mass,
    tight_average_family,
    tight_largest_group_total,
)

from fairline.objectives import eval_outcomes

from conftest import grouped_profiles

ys = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


class TestSpec:
    def test_labels(self):
        assert MTGC.label == "mtgc"
        assert alt("b", "average").label == "alt-b-average"

    def test_parse_round_trip(self):
        for label in ("mtgc", "magc", "iif1", "iif2", "alt-a-total", "alt-b-max"):
            assert parse_objective(label).label == label

    def test_alt_grid_is_exactly_six(self):
        assert len(ALT_OBJECTIVES) == 6
        assert len({spec.label for spec in ALT_OBJECTIVES}) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ObjectiveSpec("alt")
        with pytest.raises(ValueError):
            ObjectiveSpec("mtgc", form="a")
        with pytest.raises(ValueError):
            parse_objective("alt-c-total")
        with pytest.raises(ValueError):
            parse_objective("welfare")


class TestEvalPoint:
    def test_total_objective_on_tight_profile(self):
        p = tight_largest_group_total()
        assert eval_point(p, MTGC, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert eval_point(p, MTGC, 2 / 3) == pytest.approx(2 / 3, abs=1e-9)

    def test_average_objective_on_average_family(self):
        assert eval_point(tight_average_family(2), MAGC, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_contrast_objectives_vanish_at_midpoint(self):
        p = singleton_pair()
        for h in ("total", "average", "max"):
            assert eval_point(p, alt("a", h), 0.5) == 0.0

    def test_ratio_form_at_agent_location_is_infinite(self):
        p = singleton_pair()
        for h in ("total", "average", "max"):
            assert math.isinf(eval_point(p, alt("b", h), 0.0))
            assert math.isinf(eval_point(p, alt("b", h), 1.0))

    def test_ratio_form_zero_over_zero_is_one(self):
        p = build_profile([(2, 1), (2, 2)], 2)
        assert eval_point(p, alt("b", "total"), 2.0) == 1.0

    def test_combined_measures_on_colocated_groups_reduce_to_average(self):
        p = build_profile([(0, 1), (0, 1), (1, 2), (1, 2)], 2)
        for y in (-0.5, 0.0, 0.3, 1.0):
            assert eval_point(p, IIF1, y) == pytest.approx(eval_point(p, MAGC, y), abs=1e-12)
            assert eval_point(p, IIF2, y) == pytest.approx(eval_point(p, MAGC, y), abs=1e-12)


class TestEvalOutcome:
    def test_extreme_lottery_total_cost(self):
        p = three_group_center_mass(10)
        assert eval_outcome(p, MTGC, rm(p)) == pytest.approx(2.25, abs=1e-12)

    def test_extreme_lottery_average_cost(self):
        p = single_group_center_mass(10)
        assert eval_outcome(p, MAGC, rm(p)) == pytest.approx(0.3, abs=1e-9)

    @given(grouped_profiles(), ys)
    def test_deterministic_outcome_matches_point(self, profile, y):
        out = FacilityOutcome.at(y)
        for spec in (MTGC, MAGC, IIF1, IIF2):
            assert eval_outcome(profile, spec, out) == pytest.approx(
                eval_point(profile, spec, y), abs=1e-12
            )


def _left_fold(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


def test_lottery_sums_are_left_folds():
    # Every sum over this lottery's support rounds differently when compensated,
    # as `math.fsum` is and as `sum()` is from Python 3.12 on.
    profile = build_profile([(-0.394, 1), (-1.608, 2), (-0.711, 3)], 3)
    outcome = rm(profile)
    assert outcome == nrm(profile) and len(outcome.support) == 3  # singleton groups
    x = -0.711
    costs = [p * abs(pt - x) for pt, p in outcome.support]
    assert math.fsum(costs) != _left_fold(costs)
    assert agent_cost(outcome, x) == _left_fold(costs)
    specs = (MTGC, MAGC, IIF1, IIF2)
    want = []
    for spec in specs:
        terms = [p * eval_point(profile, spec, pt) for pt, p in outcome.support]
        assert math.fsum(terms) != _left_fold(terms)
        want.append(_left_fold(terms))
    assert [eval_outcome(profile, spec, outcome) for spec in specs] == want
    assert eval_outcomes(profile, specs, outcome) == want


@given(grouped_profiles(), ys, ys)
def test_convexity_of_total_and_average(profile, a, b):
    lo, hi = min(a, b), max(a, b)
    mid = (lo + hi) / 2
    for spec in (MTGC, MAGC):
        left = eval_point(profile, spec, lo)
        right = eval_point(profile, spec, hi)
        assert eval_point(profile, spec, mid) <= (left + right) / 2 + 1e-9


@given(grouped_profiles(), ys)
def test_average_below_total_and_combined_order(profile, y):
    assert eval_point(profile, MAGC, y) <= eval_point(profile, MTGC, y) + 1e-12
    assert eval_point(profile, IIF2, y) <= eval_point(profile, IIF1, y) + 1e-12
    if all(size == 1 for size in profile.group_sizes):
        assert eval_point(profile, MAGC, y) == pytest.approx(
            eval_point(profile, MTGC, y), abs=1e-12
        )


@given(grouped_profiles(max_n=5), ys)
def test_all_singletons_reduce_to_classic_max_cost(profile, y):
    singles = build_profile([(loc, i + 1) for i, (loc, _) in enumerate(profile.raw())], profile.n)
    classic = max(abs(y - x) for x in singles.locations)
    for spec in (MTGC, MAGC, IIF1, IIF2):
        assert eval_point(singles, spec, y) == pytest.approx(classic, abs=1e-12)


@given(grouped_profiles())
def test_splitting_lottery_mass_is_neutral(profile):
    coarse = FacilityOutcome.lottery([(0.0, 0.5), (1.0, 0.5)])
    fine = FacilityOutcome(((0.0, 0.25), (1e-9, 0.25), (1.0, 0.5)))
    for spec in (MTGC, MAGC, IIF1, IIF2):
        a = eval_outcome(profile, spec, coarse)
        b = eval_outcome(profile, spec, fine)
        assert b == pytest.approx(a, abs=1e-6)


def test_split_mass_exactly_neutral_on_same_point_weights():
    profile = tight_largest_group_total()
    whole = FacilityOutcome.lottery([(0.0, 0.25), (1.0, 0.25), (0.5, 0.5)])
    split = sum(
        p * eval_point(profile, MTGC, pt)
        for pt, p in [(0.0, 0.125), (0.0, 0.125), (1.0, 0.25), (0.5, 0.5)]
    )
    assert eval_outcome(profile, MTGC, whole) == pytest.approx(split, abs=1e-12)
