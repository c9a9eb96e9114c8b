import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from fairline import (
    ALT_OBJECTIVES,
    MAIN_OBJECTIVES,
    FacilityOutcome,
    IIF1,
    IIF2,
    MAGC,
    MTGC,
    ObjectiveOverflowError,
    OutcomeError,
    alt,
    breakpoints,
    build_profile,
    eval_point,
    optimize,
    parse_mechanism,
    ratio,
)
from fairline import objectives, oracle
from fairline.model import scaled_in_range
from fairline.oracle import UnboundedObjectiveError, ratio_to, ratios_to
from fairline.families import (
    group_median_family,
    single_group_two_clusters,
    singleton_pair,
    tight_average_family,
    tight_largest_group_total,
)

from conftest import grouped_profiles, random_pairs
from grid_oracle import _distinct_weighted, _grid_values, grid_optimize


class TestBreakpoints:
    def test_tight_profile_grid(self):
        # Agent locations 0, 2/3, 1 plus the same-group midpoints 1/3 and 1
        # (the latter collapsing into the agent location).
        got = breakpoints(tight_largest_group_total())
        assert got == pytest.approx((0.0, 1 / 3, 2 / 3, 1.0), abs=1e-12)

    def test_single_agent(self):
        assert breakpoints(build_profile([(4, 1)], 1)) == (4.0,)

    def test_two_singleton_groups_have_no_midpoints(self):
        assert breakpoints(singleton_pair()) == (0.0, 1.0)

    def test_only_consecutive_and_extreme_midpoints(self):
        # 0.5, 1.5 and 4 are consecutive midpoints and 3 the extreme one; the
        # midpoint 3.5 of 1 and 6 is no kink and is left out.
        profile = build_profile([(0, 1), (1, 1), (2, 1), (6, 1)], 1)
        assert breakpoints(profile) == (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)

    @pytest.mark.parametrize("k", [1, 2, 5, 17, 40])
    def test_one_group_grid_has_at_most_two_points_per_member(self, k):
        rng = random.Random(k)
        profile = build_profile([(rng.uniform(0, 1), 1) for _ in range(k)], 1)
        assert len(set(profile.locations)) == k
        assert len(breakpoints(profile)) <= 2 * k


class TestOptimize:
    def test_tight_profile_total(self):
        opt = optimize(tight_largest_group_total(), MTGC)
        assert opt.location == pytest.approx(2 / 3, abs=1e-9)
        assert opt.value == pytest.approx(2 / 3, abs=1e-9)

    def test_group_median_family_total(self):
        opt = optimize(group_median_family(3), MTGC)
        assert opt.location == pytest.approx(1.0, abs=1e-9)
        assert opt.value == pytest.approx(1.0, abs=1e-9)

    def test_half_pair_total(self):
        opt = optimize(build_profile([(0, 1), (0.5, 2)], 2), MTGC)
        assert opt.location == pytest.approx(0.25, abs=1e-9)
        assert opt.value == pytest.approx(0.25, abs=1e-9)

    def test_average_family_k50_crossing(self):
        k = 50
        opt = optimize(tight_average_family(k), MAGC)
        assert opt.location == pytest.approx(float(Fraction(4 * k - 1, 6 * k)), abs=1e-9)
        assert opt.value == pytest.approx(float(Fraction(2 * k + 1, 6 * k)), abs=1e-9)

    def test_flat_plateau_reports_leftmost(self):
        # One group at {0, 1}: total cost is 1 on the whole interval.
        opt = optimize(build_profile([(0, 1), (1, 1)], 1), MTGC)
        assert opt.location == 0.0
        assert opt.value == pytest.approx(1.0, abs=1e-12)
        assert opt.minimizers[0] == 0.0 and opt.minimizers[-1] == 1.0

    def test_contrast_objective_midpoint(self):
        opt = optimize(singleton_pair(), alt("a", "total"))
        assert opt.location == pytest.approx(0.5, abs=1e-12)
        assert opt.value == pytest.approx(0.0, abs=1e-12)

    def test_ratio_objective_midpoint(self):
        opt = optimize(singleton_pair(), alt("b", "average"))
        assert opt.location == pytest.approx(0.5, abs=1e-12)
        assert opt.value == pytest.approx(1.0, abs=1e-12)

    def test_single_agent_all_specs(self):
        p = build_profile([(3, 1)], 1)
        for spec in (MTGC, MAGC, IIF1, IIF2):
            opt = optimize(p, spec)
            assert opt.location == 3.0 and opt.value == 0.0


def optimize_outcome(profile, spec):
    """`optimize` as (location, value, minimizers), or the type of the error it raises."""
    try:
        got = optimize(profile, spec)
    except (ObjectiveOverflowError, UnboundedObjectiveError) as exc:
        return type(exc)
    return got.location, got.value, got.minimizers


def times_power_of_two(profile, k):
    """`profile` with every location times 2^k."""
    return build_profile([(math.ldexp(x, k), g) for x, g in profile.raw()], profile.group_count)


def scaled_back(outcome, spec, k):
    """An `optimize_outcome` of `spec` on a profile times 2^-k, read on the profile itself.

    Locations scale by 2^k, and so does every value but alt form "b"'s; a
    value past the float maximum is ObjectiveOverflowError. An error type
    comes back as it is.
    """
    if not isinstance(outcome, tuple):
        return outcome
    location, value, minimizers = outcome
    value = value if spec.form == "b" else value * 2.0**k
    if math.isinf(value):
        return ObjectiveOverflowError
    return location * 2.0**k, value, tuple(y * 2.0**k for y in minimizers)


def scaled_reference(profile, spec):
    """`optimize_outcome` of `profile` scaled by 2^-1000, scaled back.

    Scaling by 2^-1000 is exact on coordinates near the float maximum, and
    leaves every sum `optimize` forms far inside the float range.
    """
    return scaled_back(optimize_outcome(times_power_of_two(profile, -1000), spec), spec, 1000)


class TestOverflow:
    # iif1's optimum here, 2.55e308 on the profile scaled by 2^-1000 and
    # scaled back, exceeds the float maximum.
    FOUND = [(-1.7e308, 1), (1.7e308, 2), (0.0, 1)]
    VALUES = (-1.7e308, -1e308, -9e307, 0.0, 1e308, 1.5e308, 1.7e308)
    # Singleton groups, so mtgc, magc, iif1 and iif2 are one objective here,
    # and so are the three alt objectives of each form.
    SINGLETONS = [(-4.145137842670136e307, 1), (0.0, 2), (-8.308694924264462e299, 3), (1.7e308, 4)]

    def test_scaling_is_by_the_least_power_of_two_in_range(self):
        small = build_profile([(-3.0, 1), (5.0, 2)], 2)
        assert scaled_in_range(small) == (small, 0)
        # 16 * 2 * 1e308 is 2e308 over 2^4, past the float maximum, and 1e308 over 2^5.
        assert scaled_in_range(small, 1e308)[1] == 5
        for raw in (self.FOUND, self.SINGLETONS, [(1e308, 1), (1.5e308, 1), (1.2e308, 2)]):
            profile = build_profile(raw, max(g for _, g in raw))
            scaled, k = scaled_in_range(profile)
            top = max(-profile.span[0], profile.span[1])
            assert 16 * profile.n * math.ldexp(top, -k) <= sys.float_info.max
            assert 16 * profile.n * math.ldexp(top, 1 - k) > sys.float_info.max
            assert scaled.raw() == [(math.ldexp(x, -k), g) for x, g in profile.raw()]

    def test_the_least_power_can_be_one(self):
        # 16 * 2 * 1e307 is past the float maximum, and half of it is not.
        small = build_profile([(-3.0, 1), (5.0, 2)], 2)
        assert scaled_in_range(small, 1e307)[1] == 1
        scaled, k = scaled_in_range(build_profile([(-1e307, 1), (5.0, 2)], 2))
        assert k == 1 and scaled.raw() == [(-5e306, 1), (2.5, 2)]

    def test_points_at_an_infinity_or_nan_are_not_scaled(self):
        # No power of two brings such a point into range. Every objective
        # refuses it, as `FacilityOutcome` refuses such a support point.
        for raw in ([(0.0, 1), (1.0, 2)], [(-1.7e308, 1), (1.7e308, 2)]):
            profile = build_profile(raw, 2)
            for y in (math.inf, -math.inf, math.nan):
                with pytest.raises(OutcomeError, match="support point must be finite"):
                    scaled_in_range(profile, y)
                for spec in MAIN_OBJECTIVES + ALT_OBJECTIVES:
                    with pytest.raises(OutcomeError, match="support point must be finite"):
                        eval_point(profile, spec, y)

    def test_each_public_call_scales_once(self, monkeypatch):
        # Each public evaluator calls `scaled_in_range` at its door, and
        # nothing it runs on the scaled profile calls it again. `ratio` is
        # `optimize`, then `ratio_to`, which scores the rule's support once
        # per point: mgdm's one point, rm's three.
        calls = []

        def counted(profile, y=0.0):
            calls.append(y)
            return scaled_in_range(profile, y)

        monkeypatch.setattr(objectives, "scaled_in_range", counted)
        monkeypatch.setattr(oracle, "scaled_in_range", counted)
        mgdm, rm = parse_mechanism("mgdm"), parse_mechanism("rm")
        cases = (
            (lambda p: optimize(p, IIF1), 1),
            (lambda p: oracle.optima(p, (MTGC, IIF2, alt("b", "max"))), 1),
            (lambda p: breakpoints(p), 1),
            (lambda p: eval_point(p, IIF1, 0.5), 1),
            (lambda p: eval_point(p, IIF1, 1e308), 1),
            (lambda p: ratio(p, mgdm, MTGC), 3),
            (lambda p: ratio(p, rm, MTGC), 5),
        )
        for raw, k in (([(0.0, 1), (1.0, 2), (3.0, 2)], 0), ([(1e308, 1), (1.2e308, 2), (1.5e308, 2)], 6)):
            profile = build_profile(raw, 2)
            assert scaled_in_range(profile)[1] == k
            assert len(rm.apply(profile).support) == 3
            for call, doors in cases:
                calls.clear()
                call(profile)
                assert len(calls) == doors, (raw, calls)

    def test_optimum_past_the_float_maximum_raises_a_named_error(self):
        profile = build_profile(self.FOUND, 2)
        with pytest.raises(ObjectiveOverflowError, match="iif1 overflows the float range"):
            optimize(profile, IIF1)
        assert scaled_reference(profile, IIF1) is ObjectiveOverflowError
        assert issubclass(ObjectiveOverflowError, ValueError)

    def test_totals_past_the_float_maximum_are_taken_on_the_scaled_profile(self):
        # Each group's totals read inf at both agents on the profile itself;
        # on the profile scaled by a power of two they do not.
        profile = build_profile([(-1.7e308, 1), (1.7e308, 2)], 2)
        for spec in (MTGC, MAGC):
            assert optimize_outcome(profile, spec) == (0.0, 1.7e308, (0.0,)), spec.label

    def test_midpoints_past_the_float_range_halve_each_end(self):
        # (a + b) / 2 overflows on each of these pairs, a singleton group's
        # agent with itself included. On the profile scaled by a power of two
        # it does not, and it is a/2 + b/2 once scaled back.
        profile = build_profile([(1e308, 1), (1.5e308, 1), (1.2e308, 2)], 2)
        assert breakpoints(profile) == (1e308, 1.2e308, 1.25e308, 1.5e308)
        profile = build_profile([(-1.7e308, 1), (-1.6e308, 1), (1.7e308, 2)], 2)
        assert breakpoints(profile) == (-1.7e308, -1.7e308 / 2 + -1.6e308 / 2, -1.6e308, 1.7e308)

    def test_a_subnormal_agent_rounded_by_the_scaling_keeps_the_search_in_the_span(self):
        # Scaling by 2^-5 takes the agent at ±5e-324 to 0, which scales back
        # as 0, outside the span; the results are clamped into it.
        leftmost_at_the_subnormal = 0
        for raw in ([(5e-324, 1), (1.7e308, 1)], [(-1.7e308, 1), (-5e-324, 1)]):
            profile = build_profile(raw, 1)
            x1, xn = profile.span
            assert scaled_in_range(profile)[1] == 5
            assert all(x1 <= y <= xn for y in breakpoints(profile))
            for spec in MAIN_OBJECTIVES + ALT_OBJECTIVES:
                result = optimize(profile, spec)
                assert all(x1 <= y <= xn for y in result.minimizers), spec.label
                assert result.location == result.minimizers[0]
                if x1 == 5e-324 and spec.kind not in ("iif1", "iif2"):
                    assert result.location == 5e-324, spec.label
                    leftmost_at_the_subnormal += 1
        assert leftmost_at_the_subnormal == 8

    def test_optima_whose_sums_pass_the_float_maximum_are_exact(self):
        # The span and the direct sums at the minimizers overflow; every
        # optimum is finite.
        profile = build_profile(self.SINGLETONS, 4)
        gap = (6.427431078664932e307, 4.145137842670135e307, (6.427431078664932e307, 8.499999958456525e307, 8.5e307))
        expected = {
            "mtgc": (6.427431078664932e307, 1.0572568921335067e308, (6.427431078664932e307,)),
            "magc": (6.427431078664932e307, 1.0572568921335067e308, (6.427431078664932e307,)),
            "iif1": (6.427431078664932e307, 1.0572568921335067e308, (6.427431078664932e307,)),
            "iif2": (6.427431078664932e307, 1.0572568921335067e308, (6.427431078664932e307,)),
            "alt-a-total": gap,
            "alt-a-average": gap,
            "alt-a-max": gap,
            "alt-b-total": (8.5e307, 1.4876632756082515, (8.5e307,)),
            "alt-b-average": (8.5e307, 1.4876632756082515, (8.5e307,)),
            "alt-b-max": (8.5e307, 1.4876632756082515, (8.5e307,)),
        }
        for spec in MAIN_OBJECTIVES + ALT_OBJECTIVES:
            assert optimize_outcome(profile, spec) == expected[spec.label] == scaled_reference(profile, spec)

    def test_two_group_profiles_past_the_float_range_match_the_scaled_profile(self):
        # Every two-group profile of 2-4 agents on these coordinates, for
        # every objective: 16,344 of these calls once raised a bare IndexError.
        overflows = 0
        for n in (2, 3, 4):
            labels = [1, 2, 1, 2][:n]
            for locs in itertools.product(self.VALUES, repeat=n):
                profile = build_profile(list(zip(locs, labels)), 2)
                for spec in MAIN_OBJECTIVES + ALT_OBJECTIVES:
                    got = optimize_outcome(profile, spec)
                    assert got == scaled_reference(profile, spec), (profile.raw(), spec.label)
                    overflows += got is ObjectiveOverflowError
        assert overflows == 3_458

    def test_ratios_past_the_float_range_match_the_scaled_profile(self):
        # Each ratio is taken on the scaled values, so it stays finite where
        # the rule's own value exceeds the float maximum; that value reads inf.
        finite_over_inf = 0
        for n in (2, 3):
            labels = [1, 2, 1][:n]
            for locs in itertools.product(self.VALUES, repeat=n):
                profile = build_profile(list(zip(locs, labels)), 2)
                scaled = times_power_of_two(profile, -1000)
                specs = [s for s in MAIN_OBJECTIVES + ALT_OBJECTIVES if isinstance(optimize_outcome(profile, s), tuple)]
                optima_here = [optimize(profile, spec) for spec in specs]
                scaled_optima = [optimize(scaled, spec) for spec in specs]
                for mech in MECHS:
                    outcome = mech.apply(profile)
                    shrunk = FacilityOutcome.lottery((math.ldexp(pt, -1000), p) for pt, p in outcome.support)
                    reports = ratios_to(profile, outcome, specs, optima_here)
                    for spec, optimal, report, scaled_optimal in zip(specs, optima_here, reports, scaled_optima):
                        assert report == ratio_to(profile, outcome, spec, optimal)
                        want = ratio_to(scaled, shrunk, spec, scaled_optimal)
                        value = want.mechanism_value if spec.form == "b" else want.mechanism_value * 2.0**1000
                        context = (profile.raw(), mech.label, spec.label)
                        assert (report.ratio, report.mechanism_value) == (want.ratio, value), context
                        finite_over_inf += math.isinf(value) and math.isfinite(report.ratio)
        assert finite_over_inf > 1_000


class TestGridOptimize:
    def test_matches_exact_on_tight_profile(self):
        p = tight_largest_group_total()
        grid = grid_optimize(p, MTGC, 10**6)
        assert grid.value == pytest.approx(2 / 3, abs=1e-5)

    def test_single_agent(self):
        p = build_profile([(3, 1)], 1)
        assert grid_optimize(p, MTGC, 100).value == 0.0

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            grid_optimize(singleton_pair(), MTGC, 1)

    def test_subnormal_group_statistic_overflows_silently(self):
        # At the grid's first point the singleton group's total is 5e-324, so
        # the max/min ratio overflows to inf, which eval_point also returns.
        p = build_profile([(0, 1), (1, 1), (5e-324, 2)], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = grid_optimize(p, alt("b", "total"), 101)
        assert math.isinf(eval_point(p, alt("b", "total"), 0.0))
        assert grid.value == pytest.approx(optimize(p, alt("b", "total")).value, rel=1e-3)

    def test_doubling_resolutions_refine(self):
        p = tight_average_family(4)
        exact = optimize(p, MAGC).value
        gaps = []
        for resolution in (1000, 2000, 4000, 8000):
            gaps.append(grid_optimize(p, MAGC, resolution).value - exact)
        assert all(g >= -1e-9 for g in gaps)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestRatio:
    def test_tight_profile_ratio_three(self):
        rep = ratio(tight_largest_group_total(), parse_mechanism("mgdm"), MTGC)
        assert rep.ratio == pytest.approx(3.0, abs=1e-9)

    def test_group_median_family_ratio_five(self):
        rep = ratio(group_median_family(5), parse_mechanism("mdm"), MTGC)
        assert rep.ratio == pytest.approx(5.0, abs=1e-9)

    def test_two_clusters_ratio_grows_with_n(self):
        rep = ratio(single_group_two_clusters(10), parse_mechanism("ldm"), MTGC)
        assert rep.ratio == pytest.approx(9.0, abs=1e-9)

    def test_zero_optimum_convention(self):
        midpoint = lambda profile: FacilityOutcome.at(0.5)
        rep = ratio(singleton_pair(), midpoint, alt("a", "total"))
        assert rep.ratio == 1.0
        leftpoint = lambda profile: FacilityOutcome.at(0.0)
        rep = ratio(singleton_pair(), leftpoint, alt("a", "total"))
        assert math.isinf(rep.ratio)


MECHS = [parse_mechanism(m) for m in ("mdm", "ldm", "mgdm", "rm", "nrm", "mogm")]


@given(grouped_profiles())
def test_mechanism_dominance(profile):
    for mech in MECHS:
        for spec in (MTGC, MAGC, IIF1, IIF2):
            assert ratio(profile, mech, spec).ratio >= 1.0 - 1e-9


@given(grouped_profiles())
def test_exact_never_above_grid(profile):
    for spec in (MTGC, MAGC, IIF1, IIF2):
        exact = optimize(profile, spec)
        grid = grid_optimize(profile, spec, 2001)
        assert exact.value <= grid.value + 1e-9


@given(grouped_profiles())
def test_optima_just_under_the_float_maximum_scale_with_the_profile(profile):
    # `top` has its largest |x| in [2^1022, 2^1023), past the float range of
    # its sums; `low` is `top` times 2^-20, inside it. Scaling by a power of
    # two is exact, so `top`'s optimum is `low`'s scaled by 2^20, or an
    # ObjectiveOverflowError exactly when that value is inf.
    x1, xn = profile.span
    assume(max(-x1, xn) > 0.0)
    e = math.frexp(max(-x1, xn))[1]
    top = times_power_of_two(profile, 1023 - e)
    low = times_power_of_two(profile, 1003 - e)
    for spec in MAIN_OBJECTIVES + ALT_OBJECTIVES:
        want = scaled_back(optimize_outcome(low, spec), spec, 20)
        assert optimize_outcome(top, spec) == want, spec.label
        if isinstance(want, tuple):
            assert want[1] == eval_point(top, spec, want[0]), spec.label


@given(grouped_profiles(), st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
def test_scalar_evaluator_matches_numpy_grid_pointwise(profile, fractions):
    # eval_point is the per-group evaluator the exact optimizer also uses;
    # _grid_values is the independent numpy one behind grid_optimize.
    x1, xn = profile.span
    points = set(profile.locations)
    for locs in profile.group_locations:
        points.update((a + b) / 2.0 for i, a in enumerate(locs) for b in locs[i + 1 :])
    points.update(x1 + t * (xn - x1) for t in fractions)
    ys = sorted(points)
    weighted = _distinct_weighted(profile)
    for spec in MAIN_OBJECTIVES + ALT_OBJECTIVES:
        grid = _grid_values(weighted, spec, np.array(ys))
        for y, expected in zip(ys, grid.tolist()):
            got = eval_point(profile, spec, y)
            assert math.isinf(got) == math.isinf(expected), (spec.label, y, got, expected)
            if not math.isinf(got):
                assert abs(got - expected) <= 1e-9 * max(1.0, abs(got)), (spec.label, y, got, expected)


def _grid_values_matrix(groups, spec, ys):
    """`_grid_values` reducing the full (points x members) distance matrix, as it once did."""
    totals = []
    avgs = []
    spreads = []
    stats = []
    for xs, counts, size in groups:
        diffs = np.abs(ys[:, None] - xs[None, :])
        total = diffs @ counts
        if spec.kind == "mtgc":
            totals.append(total)
            continue
        if spec.kind == "magc":
            avgs.append(total / size)
            continue
        if spec.kind in ("iif1", "iif2"):
            avgs.append(total / size)
            spreads.append(diffs.max(axis=1) - diffs.min(axis=1))
            continue
        if spec.h == "total":
            stats.append(total)
        elif spec.h == "average":
            stats.append(total / size)
        else:
            stats.append(diffs.max(axis=1))
    if spec.kind == "mtgc":
        return np.maximum.reduce(totals)
    if spec.kind == "magc":
        return np.maximum.reduce(avgs)
    if spec.kind == "iif1":
        return np.maximum.reduce(avgs) + np.maximum.reduce(spreads)
    if spec.kind == "iif2":
        return np.maximum.reduce([a + s for a, s in zip(avgs, spreads)])
    hi = np.maximum.reduce(stats)
    lo = np.minimum.reduce(stats)
    if spec.form == "a":
        return hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.where(lo > 0.0, hi / np.where(lo > 0.0, lo, 1.0), np.where(hi == 0.0, 1.0, np.inf))
    return vals


def test_grid_values_match_full_matrix_reduction_bit_for_bit():
    rng = random.Random(6006)
    for k in range(300):
        profile = build_profile(*random_pairs(rng, max_n=12, max_m=4))
        x1, xn = profile.span
        width = max(xn - x1, 1.0)
        ys = np.concatenate(
            [np.linspace(x1 - width, xn + width, 257), np.array(profile.locations), np.array(breakpoints(profile))]
        )
        weighted = _distinct_weighted(profile)
        for spec in MAIN_OBJECTIVES + ALT_OBJECTIVES:
            got = _grid_values(weighted, spec, ys)
            want = _grid_values_matrix(weighted, spec, ys)
            assert got.tobytes() == want.tobytes(), (k, spec.label, profile.raw())


@given(grouped_profiles())
def test_convex_consistency_of_minimizer_set(profile):
    for spec in (MTGC, MAGC):
        opt = optimize(profile, spec)
        mid = (opt.minimizers[0] + opt.minimizers[-1]) / 2
        assert eval_point(profile, spec, mid) == pytest.approx(opt.value, abs=1e-9)
        for y in opt.minimizers:
            assert eval_point(profile, spec, y) == pytest.approx(opt.value, abs=1e-9)


@given(grouped_profiles())
def test_optimum_lies_between_extreme_group_medians(profile):
    ml, mr = min(profile.group_medians), max(profile.group_medians)
    for spec in (MTGC, MAGC):
        opt = optimize(profile, spec)
        assert ml - 1e-9 <= opt.location <= mr + 1e-9


def test_import_leaves_numpy_unloaded():
    # No package code needs numpy: importing fairline leaves it unloaded, and
    # every command runs with it blocked (a None entry makes its import fail).
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, fairline, fairline.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    commands = [
        ["fixtures"],
        ["eval", "{fixture}", "--mech", "mgdm", "--obj", "mtgc"],
        ["audit", "{fixture}", "--mech", "rm"],
        ["search", "--mech", "mgdm", "--obj", "mtgc", "--restarts", "1", "--iterations", "20", "--bound", "3"],
        ["sweep", "{fixtures}", "--mech", "mdm,rm", "--obj", "iif1,alt-b-max"],
    ]
    code = """
import json, sys
sys.modules["numpy"] = None
from fairline import cli
from fairline.fixtures import fixture_dir
fixtures = str(fixture_dir())
fixture = str(fixture_dir() / "tight_largest_group_total.json")
codes = []
for argv in json.loads(sys.argv[1]):
    codes.append(cli.main([a.format(fixture=fixture, fixtures=fixtures) for a in argv]))
print(json.dumps(codes), file=sys.stderr)
"""
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.strip().splitlines()[-1] == "[0, 0, 0, 0, 0]", out.stderr
