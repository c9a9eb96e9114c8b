import math
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from fairline import (
    EmptyGroupError,
    FacilityOutcome,
    GroupedProfile,
    InvalidLocationError,
    OutcomeError,
    ProfileError,
    agent_cost,
    build_profile,
)

from fairline import model
from fairline.objectives import IIF1, MTGC, alt, constituents

from conftest import grouped_profiles

TWO_THIRDS = 2.0 / 3.0


class TestBuildProfile:
    def test_two_agent_base_case(self):
        p = build_profile([(0, 1), (1, 2)], 2)
        assert p.locations == (0.0, 1.0)
        assert tuple(g for _, g in p.raw()) == (1, 2)

    def test_sorts_by_location(self):
        p = build_profile([(1, 1), (0, 1)], 1)
        assert p.locations == (0.0, 1.0)

    def test_missing_group_rejected(self):
        with pytest.raises(EmptyGroupError) as exc:
            build_profile([(0, 1)], 2)
        assert exc.value.group == 2

    def test_nonfinite_location_rejected(self):
        with pytest.raises(InvalidLocationError):
            build_profile([(math.nan, 1)], 1)
        with pytest.raises(InvalidLocationError):
            build_profile([(math.inf, 1)], 1)

    def test_oversized_location_rejected(self):
        with pytest.raises(InvalidLocationError):
            build_profile([(10**400, 1)], 1)

    def test_bad_group_index_rejected(self):
        with pytest.raises(ProfileError):
            build_profile([(0, 3)], 2)
        with pytest.raises(ProfileError):
            build_profile([(0, 0)], 1)

    def test_empty_profile_rejected(self):
        with pytest.raises(ProfileError):
            build_profile([], 1)
        with pytest.raises(ProfileError, match="at least one group"):
            build_profile([], 0)

    def test_validates_each_location_once(self, monkeypatch):
        calls = 0
        check = model._location

        def counting(value):
            nonlocal calls
            calls += 1
            return check(value)

        monkeypatch.setattr(model, "_location", counting)
        build_profile([(0, 1), (2, 2), (1, 1)], 2)
        assert calls == 3

    def test_colocated_tie_break_is_stable(self):
        p = build_profile([(0, 2), (0, 1), (0, 2)], 2)
        assert tuple(g for _, g in p.raw()) == (1, 2, 2)

    def test_accessors(self):
        p = build_profile([(0, 1), (TWO_THIRDS, 1), (1, 2), (1, 2)], 2)
        assert p.n == 4
        assert p.span == (0.0, 1.0)
        assert p.group_sizes == (2, 2)
        assert p.group_locations[0] == (0.0, TWO_THIRDS)
        assert p.group_medians == (0.0, 1.0)

    def test_deviation_resorts(self):
        p = build_profile([(0, 1), (1, 2)], 2)
        q = p.deviations((0,))(5.0)
        assert q.locations == (1.0, 5.0)
        assert tuple(g for _, g in q.raw()) == (2, 1)

    def test_oversized_report_rejected(self):
        p = build_profile([(0, 1), (1, 2)], 2)
        with pytest.raises(InvalidLocationError):
            p.deviations((0,))(10**400)


class TestDirectConstructor:
    def test_no_group_rejected(self):
        with pytest.raises(ProfileError):
            GroupedProfile(())

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroupError) as exc:
            GroupedProfile(((0.0,), ()))
        assert exc.value.group == 2

    def test_unsorted_group_rejected(self):
        with pytest.raises(ProfileError):
            GroupedProfile(((0.0, 1.0), (2.0, 1.0)))

    @pytest.mark.parametrize(
        "location", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "oversized"]
    )
    def test_invalid_location_rejected(self, location):
        with pytest.raises(InvalidLocationError):
            GroupedProfile(((0.0,), (location,)))

    def test_negative_zero_stored_as_zero(self):
        p = GroupedProfile(((-0.0,), (-0.0, 1)))
        assert [math.copysign(1.0, x) for x in p.locations] == [1.0, 1.0, 1.0]
        assert all(math.copysign(1.0, x) == 1.0 for group in p.group_locations for x in group)

    def test_equals_built_profile(self):
        pairs = [(1, 2), (0.5, 1), (-0.0, 2), (0.5, 1), (3, 1)]
        built = build_profile(pairs, 2)
        direct = GroupedProfile(((0.5, 0.5, 3.0), (0.0, 1.0)))
        assert direct == built and hash(direct) == hash(built)
        for view in ("locations", "group_locations", "group_sizes", "group_medians"):
            assert getattr(direct, view) == getattr(built, view), view
        assert direct.raw() == built.raw() and direct.group_count == 2


class TestOutcome:
    def test_deterministic_special_case(self):
        out = FacilityOutcome.at(3.0)
        assert out.is_deterministic and out.point == 3.0

    @pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
    def test_nonfinite_point_rejected(self, point):
        with pytest.raises(OutcomeError):
            FacilityOutcome.at(point)

    def test_point_equals_validated_single_point(self):
        rng = random.Random(3)
        for x in [0.0, -0.0, 5e-324, -1.7e308, 3] + [rng.uniform(-1e6, 1e6) for _ in range(100)]:
            out = FacilityOutcome.at(x)
            assert out == FacilityOutcome(((float(x), 1.0),))
            assert math.copysign(1.0, out.point) == math.copysign(1.0, x)
            assert out.is_deterministic

    @pytest.mark.parametrize("point", [math.nan, -math.nan, math.inf, -math.inf])
    def test_nonfinite_float_rejected_with_outcome_error(self, point):
        with pytest.raises(OutcomeError):
            FacilityOutcome.at(point)

    def test_negative_zero_kept(self):
        assert math.copysign(1.0, FacilityOutcome.at(-0.0).point) == -1.0

    def test_other_numbers_become_plain_floats(self):
        class Sub(float):
            pass

        for x, want in [(3, 3.0), (True, 1.0), (Sub(2.5), 2.5)]:
            support = FacilityOutcome.at(x).support
            assert support == ((want, 1.0),) and type(support[0][0]) is float

    def test_int_past_the_float_range_overflows(self):
        with pytest.raises(OverflowError):
            FacilityOutcome.at(10**400)

    @pytest.mark.parametrize(
        "points",
        [(0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (-math.inf, 0.0, 1.0), (0.0, 1.0, math.inf), (0.0, math.nan, 1.0)],
    )
    def test_three_point_support_with_a_repeated_or_nonfinite_point_rejected(self, points):
        left, mid, right = points
        with pytest.raises(OutcomeError):
            FacilityOutcome(((left, 0.25), (mid, 0.5), (right, 0.25)))

    def test_lottery_merges_duplicates(self):
        out = FacilityOutcome.lottery([(1.0, 0.25), (1.0, 0.25), (0.0, 0.5)])
        assert out.support == ((0.0, 0.5), (1.0, 0.5))

    def test_point_of_lottery_raises(self):
        out = FacilityOutcome.lottery([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(OutcomeError):
            out.point

    def test_validation(self):
        with pytest.raises(OutcomeError):
            FacilityOutcome(())
        with pytest.raises(OutcomeError):
            FacilityOutcome(((0.0, 0.5), (1.0, 0.6)))
        with pytest.raises(OutcomeError):
            FacilityOutcome(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(OutcomeError):
            FacilityOutcome(((0.0, 0.5), (0.0, 0.5)))
        with pytest.raises(OutcomeError):
            FacilityOutcome(((math.inf, 1.0),))


class TestAgentCost:
    def test_zero_distance(self):
        # +0.0, whatever the signs of zero on either side.
        for pt, x in ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.5, 1.5), (-2e-300, -2e-300)):
            for out in (FacilityOutcome.at(pt), FacilityOutcome(((pt, sum([0.1] * 10)),))):
                cost = agent_cost(out, x)
                assert cost == 0.0 and math.copysign(1.0, cost) == 1.0, (pt, x)

    def test_three_point_lottery(self):
        out = FacilityOutcome.lottery([(0.0, 0.25), (1.0, 0.25), (0.5, 0.5)])
        assert agent_cost(out, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_single_point_matches_generic_sum(self):
        rng = random.Random(4)
        probabilities = [1.0, sum([0.1] * 10)]  # a merged lottery may hold 0.9999999999999999
        for _ in range(5000):
            pt, x = (rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-12, 12) for _ in range(2))
            for p in probabilities:
                out = FacilityOutcome(((pt, p),))
                generic = sum(q * abs(y - x) for y, q in out.support)
                assert agent_cost(out, x).hex() == generic.hex()
                assert agent_cost(out, pt) == 0.0

    def test_matches_a_left_fold(self):
        rng = random.Random(6)
        for _ in range(3000):
            x = rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-12, 12)
            points = {rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-12, 12) for _ in range(rng.randint(1, 4))}
            weights = [rng.random() + 0.01 for _ in points]
            out = FacilityOutcome.lottery([(pt, w / sum(weights)) for pt, w in zip(points, weights)])
            fold = 0.0
            for pt, p in out.support:
                fold += p * abs(pt - x)
            assert agent_cost(out, x).hex() == fold.hex()

    def test_symmetric_pair(self):
        out = FacilityOutcome.lottery([(0.0, 0.5), (2.0, 0.5)])
        assert agent_cost(out, 1.0) == pytest.approx(1.0, abs=1e-12)


def _group_summary(profile, group, y):
    """(total, average, maximum, minimum) expected cost over `group`'s members at facility y.

    Read from the per-group constituents the objectives combine: mtgc's total,
    iif1's average and spread, and alt's farthest member; the minimum is the
    maximum less the spread.
    """
    j = group - 1
    total = constituents(profile, MTGC, y)[0][j]
    average, spread = (family[j] for family in constituents(profile, IIF1, y))
    maximum = constituents(profile, alt("a", "max"), y)[0][j]
    return total, average, maximum, maximum - spread


class TestGroupSummary:
    def test_split_group_against_left_point(self):
        p = build_profile([(0, 1), (TWO_THIRDS, 1), (1, 2), (1, 2)], 2)
        total, average, maximum, minimum = _group_summary(p, 1, 0.0)
        assert total == pytest.approx(TWO_THIRDS, abs=1e-12)
        assert average == pytest.approx(1 / 3, abs=1e-12)
        assert maximum == pytest.approx(TWO_THIRDS, abs=1e-12)
        assert minimum == 0.0

    def test_colocated_pair(self):
        p = build_profile([(0, 1), (TWO_THIRDS, 1), (1, 2), (1, 2)], 2)
        assert _group_summary(p, 2, 0.0) == (2.0, 1.0, 1.0, 1.0)

    def test_singleton_at_facility(self):
        p = build_profile([(5, 1)], 1)
        assert _group_summary(p, 1, 5.0) == (0.0, 0.0, 0.0, 0.0)


@given(grouped_profiles(), st.floats(-3, 3, allow_nan=False))
def test_translation_leaves_costs_unchanged(profile, delta):
    out = FacilityOutcome.lottery([(0.0, 0.25), (1.0, 0.25), (0.5, 0.5)])
    shifted_out = FacilityOutcome.lottery([(pt + delta, p) for pt, p in out.support])
    shifted = build_profile([(loc + delta, g) for loc, g in profile.raw()], profile.group_count)
    for locs, moved in zip(profile.group_locations, shifted.group_locations):
        a = [agent_cost(out, x) for x in locs]
        b = [agent_cost(shifted_out, x) for x in moved]
        assert sum(b) == pytest.approx(sum(a), abs=1e-9)
        assert max(b) == pytest.approx(max(a), abs=1e-9)


@given(grouped_profiles(), st.floats(0.1, 10, allow_nan=False))
def test_positive_scaling_scales_costs(profile, scale):
    out = FacilityOutcome.at(0.25)
    scaled_out = FacilityOutcome.at(0.25 * scale)
    scaled = build_profile([(loc * scale, g) for loc, g in profile.raw()], profile.group_count)
    for locs, moved in zip(profile.group_locations, scaled.group_locations):
        a = sum(agent_cost(out, x) for x in locs)
        b = sum(agent_cost(scaled_out, x) for x in moved)
        assert b == pytest.approx(a * scale, rel=1e-9, abs=1e-9)


@given(grouped_profiles())
def test_lottery_cost_is_mix_of_point_costs(profile):
    support = [(0.0, 0.25), (1.0, 0.25), (0.5, 0.5)]
    out = FacilityOutcome.lottery(support)
    for loc in profile.locations:
        direct = agent_cost(out, loc)
        mixed = sum(p * agent_cost(FacilityOutcome.at(pt), loc) for pt, p in support)
        assert direct == pytest.approx(mixed, abs=1e-12)


@given(grouped_profiles(), st.floats(-2, 2, allow_nan=False))
def test_summary_ordering_invariant(profile, y):
    out = FacilityOutcome.at(y)
    for j, locs in enumerate(profile.group_locations, start=1):
        total, average, maximum, minimum = _group_summary(profile, j, y)
        assert minimum <= average + 1e-12
        assert average <= maximum + 1e-12
        assert total == pytest.approx(average * profile.group_sizes[j - 1], abs=1e-9)
        costs = [agent_cost(out, x) for x in locs]
        assert total == pytest.approx(sum(costs), abs=1e-9)
        assert (maximum, minimum) == pytest.approx((max(costs), min(costs)), abs=1e-9)
