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
from hypothesis import given
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
    alt,
    breakpoints,
    build_profile,
    eval_point,
    optimize,
    parse_mechanism,
    ratio,
)
from fairline.oracle import UnboundedObjectiveError
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


class TestOverflow:
    # inf - inf reaches the first candidate: its value is NaN.
    FOUND = [(-1.7e308, 1), (1.7e308, 2), (0.0, 1)]
    VALUES = (-1.7e308, -1e308, -9e307, 0.0, 1e308, 1.5e308, 1.7e308)

    def test_nan_optimum_raises_a_named_error(self):
        profile = build_profile(self.FOUND, 2)
        with pytest.raises(ObjectiveOverflowError, match="iif1 overflows the float range"):
            optimize(profile, IIF1)
        assert issubclass(ObjectiveOverflowError, ValueError)

    def test_every_candidate_inf_past_the_float_range_is_overflow(self):
        # Each group's totals read inf at both agents; that is overflow, not
        # alt form "b"'s positive statistic over 0.
        profile = build_profile([(-1.7e308, 1), (1.7e308, 2)], 2)
        for spec in (MTGC, MAGC):
            with pytest.raises(ObjectiveOverflowError, match=f"{spec.label} overflows the float range"):
                optimize(profile, spec)

    def test_midpoints_past_the_float_range_halve_each_end(self):
        # (a + b) / 2 overflows on each of these pairs, a singleton group's
        # agent with itself included; a/2 + b/2 does not.
        profile = build_profile([(1e308, 1), (1.5e308, 1), (1.2e308, 2)], 2)
        assert breakpoints(profile) == (1e308, 1.2e308, 1.25e308, 1.5e308)
        profile = build_profile([(-1.7e308, 1), (-1.6e308, 1), (1.7e308, 2)], 2)
        assert breakpoints(profile) == (-1.7e308, -1.7e308 / 2 + -1.6e308 / 2, -1.6e308, 1.7e308)

    def test_infinite_optimum_raises_a_named_error(self):
        # Every listed minimizer's swept value is finite, but the direct sum
        # at the first one overflows, and so does 2·n·span.
        profile = build_profile(
            [(-4.145137842670136e307, 1), (0.0, 2), (-8.308694924264462e299, 3), (1.7e308, 4)], 4
        )
        for spec in (IIF1,) + ALT_OBJECTIVES:
            with pytest.raises(ObjectiveOverflowError, match=f"{spec.label} overflows the float range"):
                optimize(profile, spec)
        for spec in (MTGC, MAGC, IIF2):
            assert math.isfinite(optimize(profile, spec).value)

    def test_two_group_profiles_past_the_float_range_fail_only_by_name(self):
        # Every two-group profile of 2-4 agents on these coordinates, for
        # every objective: 16,344 of these calls once raised a bare IndexError.
        overflows = 0
        for n in (2, 3, 4):
            labels = [1, 2, 1, 2][:n]
            for locs in itertools.product(self.VALUES, repeat=n):
                profile = build_profile(list(zip(locs, labels)), 2)
                for spec in MAIN_OBJECTIVES + ALT_OBJECTIVES:
                    try:
                        optimize(profile, spec)
                    except ObjectiveOverflowError:
                        overflows += 1
                    except UnboundedObjectiveError:
                        pass
        assert overflows > 10_000


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
