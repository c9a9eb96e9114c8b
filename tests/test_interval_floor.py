"""`optimize`'s interval floor cut against a search of every kink interval.

`every_interval_optimum` is a test-only reference: it evaluates the same
kinks and crossings as `optimize` and selects the optimum by the same tie
rule, but it searches crossings on every interval. On the non-convex path
the cut skips only intervals whose crossings all lie above the optimum's tie
window, and mtgc and magc, which are convex, have their minimizers next to
the kinks tied with the best one, where `optimize` searches them; so the two
must agree bit for bit.

`optima`, which shares each group sweep between the objectives it is given,
must agree with `optimize` bit for bit on the same profiles, whichever
objectives share a sweep and in whatever order they are given, and raise what
the first objective that fails raises.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from fairline import ALT_OBJECTIVES, IIF1, IIF2, MAGC, MAIN_OBJECTIVES, MTGC, build_profile, optima, optimize
from fairline import oracle
from fairline.model import _merge_close, scaled_in_range
from fairline.objectives import assemble_along, combine, combine_along, eval_point
from fairline.oracle import (
    OptimalResult,
    UnboundedObjectiveError,
    _interval_floors,
    _kinks,
    _tie_tol,
    breakpoints,
)
from test_kink_grid import _random_profile, crossing_candidates
from test_oracle import scaled_back
from test_swept_oracle import NEAR_FLOAT_MAX, _profiles, columns_of, rows

SPECS = MAIN_OBJECTIVES + ALT_OBJECTIVES
NON_CONVEX = (IIF1, IIF2) + ALT_OBJECTIVES
DRAWS = 1_000


def every_interval_optimum(profile, spec) -> OptimalResult:
    """`optimize` with crossings searched on every kink interval.

    The kinks are `optimize`'s: the agent locations for mtgc and magc and
    `breakpoints` otherwise. On a zero span it reads the objective at the one
    agent location, as `optimize` does.
    """
    x1, xn = profile.span
    if xn - x1 <= 0.0:
        return OptimalResult(x1, eval_point(profile, spec, x1), (x1,))
    pts = _kinks(profile, spec)
    fams = rows(columns_of(profile, spec, pts))
    candidates = [(pts[0], combine(spec, fams[0]))]
    for k in range(len(pts) - 1):
        candidates.extend(crossing_candidates(spec, pts[k], fams[k], pts[k + 1], fams[k + 1]))
        candidates.append((pts[k + 1], combine(spec, fams[k + 1])))
    return _optimum(profile, spec, candidates)


def _optimum(profile, spec, candidates) -> OptimalResult:
    """The leftmost least of `candidates`, (location, value) pairs, by `optimize`'s tie rule."""
    finite = [(y, v) for y, v in candidates if not math.isinf(v)]
    if not finite:
        raise UnboundedObjectiveError(spec.label)
    vmin = min(v for _, v in finite)
    tied = vmin + _tie_tol(vmin)
    minimizers = _merge_close(sorted(y for y, v in finite if v <= tied))
    return OptimalResult(minimizers[0], eval_point(profile, spec, minimizers[0]), tuple(minimizers))


def _outcome(optimizer, profile, spec):
    """(location, value, minimizers), or the type of the exception raised."""
    try:
        got = optimizer(profile, spec)
    except Exception as exc:  # past the float range both may fail; they must fail alike
        return type(exc)
    return got.location, got.value, got.minimizers


def _assert_same_optimum(profile, spec, context):
    # The reference searches the profile as `optimize` scales it.
    scaled, k = scaled_in_range(profile)
    want = scaled_back(_outcome(every_interval_optimum, scaled, spec), spec, k)
    assert _outcome(optimize, profile, spec) == want, (context, spec.label, profile.raw())


def _draws(scale):
    rng = random.Random(4_417)
    for _ in range(DRAWS):
        profile = _random_profile(rng)
        if scale != 1.0:
            profile = build_profile([(x * scale, g) for x, g in profile.raw()], profile.group_count)
        yield profile


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e15])
def test_cut_matches_every_interval_search(scale):
    for k, profile in enumerate(_draws(scale)):
        for spec in SPECS:
            _assert_same_optimum(profile, spec, (k, scale))


# Profiles whose span or group totals pass the float maximum. `optimize`,
# and so the cut, works on them scaled by a power of two, where no sum
# overflows.
OVERFLOWING = [
    [(-4.145137842670136e307, 1), (0.0, 2), (-8.308694924264462e299, 3), (1.7e308, 4)],
    [(1.5e308, 1), (0.0, 2), (1.5e308, 3), (1e308, 2), (1.7e308, 1), (1.5e308, 1)],
]


# Every agent at one point near the float maximum, where the sum of that
# point and itself overflows.
ZERO_SPAN = [[(-1e308, 1)], [(-1.7e308, 1), (-1.7e308, 2)]]


@pytest.mark.parametrize("raw", [raw for raw, _ in NEAR_FLOAT_MAX] + OVERFLOWING + ZERO_SPAN)
def test_cut_matches_every_interval_search_near_float_max(raw):
    profile = build_profile(raw, max(g for _, g in raw))
    for spec in SPECS:
        _assert_same_optimum(profile, spec, raw)


def test_flat_convex_optimum_reports_its_leftmost_minimizer():
    # The least rounded kink value is 0.1's, and -0.2 ties with it, so the
    # leftmost minimizers lie inside (-1.0, -0.2), two intervals left of 0.1.
    raw = [(-1.8, 3), (-1.3, 1), (-1.0, 3), (-0.2, 2), (0.1, 3), (0.2, 1), (0.7, 2), (2.7, 2), (2.8, 3)]
    profile = build_profile(raw, 3)
    got = optimize(profile, MTGC)
    assert (got.location, got.value, got.minimizers) == (-0.8333333333333328, 5.7, (-0.8333333333333328, -0.2, 0.1))
    got = optimize(profile, MAGC)
    assert (got.location, got.value, got.minimizers) == (
        -0.35833333333333306,
        1.4249999999999998,
        (-0.35833333333333306, -0.2, 0.1),
    )


def _assert_optima_match_optimize(profile, specs, want):
    # One `optima(profile, specs)`: `optimize`'s results in `specs` order, or
    # the error of the first spec whose optimum raises.
    expected = [want[spec] for spec in specs]
    errors = [w for w in expected if isinstance(w, type)]
    try:
        got = optima(profile, specs)
    except Exception as exc:
        assert errors and type(exc) is errors[0], (specs, exc, profile.raw())
        return
    assert not errors, (specs, profile.raw())
    assert [(r.location, r.value, r.minimizers) for r in got] == expected, (specs, profile.raw())


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e15])
def test_optima_match_optimize(scale):
    # All ten objectives in a random order, split at a random point into two
    # `optima` calls.
    rng = random.Random(7_103)
    for profile in _draws(scale):
        want = {spec: _outcome(optimize, profile, spec) for spec in SPECS}
        specs = rng.sample(SPECS, len(SPECS))
        cut = rng.randint(1, len(SPECS))
        for part in (specs[:cut], specs[cut:]):
            _assert_optima_match_optimize(profile, part, want)


@pytest.mark.parametrize("raw", [raw for raw, _ in NEAR_FLOAT_MAX] + OVERFLOWING + [
    [(0.0, 1), (5.0, 1), (5.0, 2), (12.0, 2)],
    [(-2.79, 1), (-2.79, 1), (-2.79, 2), (-2.32, 1), (-0.78, 2), (-0.61, 3), (1.33, 2), (1.55, 3)],
])
def test_optima_match_optimize_for_every_subset(raw):
    # What an objective's group sweep holds depends only on which objectives
    # share its kinks; which one raises first depends on their order.
    profile = build_profile(raw, max(g for _, g in raw))
    want = {spec: _outcome(optimize, profile, spec) for spec in SPECS}
    rng = random.Random(5_501)
    for size in range(1, len(SPECS) + 1):
        for subset in itertools.combinations(SPECS, size):
            _assert_optima_match_optimize(profile, rng.sample(subset, size), want)


def test_optima_of_a_repeated_objective(monkeypatch):
    # One result per spec given, and one sweep per kink grid however often
    # an objective on it repeats.
    swept = []
    stats_along = oracle.stats_along

    def counted_stats(profile, ys, specs):
        swept.append(tuple(specs))
        return stats_along(profile, ys, specs)

    monkeypatch.setattr(oracle, "stats_along", counted_stats)
    profile = build_profile([(0.0, 1), (5.0, 1), (5.0, 2), (12.0, 2)], 2)
    got = optima(profile, (IIF1, MTGC, IIF1))
    assert swept == [(IIF1, IIF1), (MTGC,)]
    assert len(got) == 3
    assert got[0] == got[2] == optimize(profile, IIF1)
    assert got[1] == optimize(profile, MTGC)


def test_cut_searches_few_intervals(monkeypatch):
    searched = 0
    search = oracle._crossings

    def counting(spec, pts, columns, intervals):
        nonlocal searched
        searched += len(intervals)
        return search(spec, pts, columns, intervals)

    monkeypatch.setattr(oracle, "_crossings", counting)
    for profile in _profiles()[-3:]:  # the Gaussian profiles, n = 127, 130 and 133
        intervals = len(breakpoints(profile)) - 1
        for spec in (IIF1, IIF2):
            searched = 0
            optimize(profile, spec)
            assert searched < 0.1 * intervals, (profile.n, spec.label, searched, intervals)


def _reference_crossings(spec, pts, columns, intervals):
    """`crossing_candidates` on each of the kink intervals `intervals` in turn, as exact float bits."""
    fams = rows(columns)
    out = []
    for k in intervals:
        out += [(y.hex(), v.hex()) for y, v in crossing_candidates(spec, pts[k], fams[k], pts[k + 1], fams[k + 1])]
    return out


def _large_profile(rng: random.Random):
    """About 40–140 agents in 1–4 Gaussian clusters, a fifth of them colocated with another agent."""
    n = rng.randint(40, 120)
    m = rng.randint(1, 4)
    centres = [rng.uniform(0.2, 0.8) for _ in range(m)]
    raw = [(round(rng.gauss(centres[g - 1], 0.2), 3), g) for g in list(range(1, m + 1)) * (n // m)]
    raw += [(x, rng.randint(1, m)) for x, _ in rng.sample(raw, n // 5)]  # colocated, often across groups
    return build_profile(raw, m)


def test_crossing_pass_matches_the_reference_interval_by_interval(monkeypatch):
    # Each optimum makes one pass, which yields the reference's crossings on
    # the intervals it is handed, in the same order and bit for bit; so does a
    # pass over every interval of the swept kinks, the coarse pass's gaps
    # included, where two kinks adjacent in the columns are not on the grid.
    handed = []
    search = oracle._crossings

    def recorded(spec, pts, columns, intervals):
        ys, values = search(spec, pts, columns, intervals)
        handed.append((pts, columns, intervals, [(y.hex(), v.hex()) for y, v in zip(ys, values)]))
        return ys, values

    monkeypatch.setattr(oracle, "_crossings", recorded)
    rng = random.Random(3_307)
    large = [_large_profile(rng) for _ in range(20)]
    assert all(len(breakpoints(profile)) >= oracle._BLOCK**2 for profile in large)  # big enough for the coarse pass
    seen = {"groups": set(), "flat": 0, "inf": 0, "gaps": 0}
    for profile in [_random_profile(rng) for _ in range(DRAWS)] + large:
        seen["groups"].add(profile.group_count)
        for spec in SPECS:
            handed.clear()
            try:
                seen["flat"] += len(optimize(profile, spec).minimizers) > 1
            except UnboundedObjectiveError:
                pass
            assert len(handed) == 1, (spec.label, profile.raw())  # one pass per optimum
            pts, columns, intervals, got = handed[0]
            assert got == _reference_crossings(spec, pts, columns, intervals), (spec.label, profile.raw())
            if profile.span[1] > profile.span[0]:
                pts, stats, gaps = oracle._sweep(profile, _kinks(profile, spec), (spec,))
                columns = assemble_along(spec, stats)
                every = range(len(pts) - 1)
                ys, values = search(spec, pts, columns, every)
                got = [(y.hex(), v.hex()) for y, v in zip(ys, values)]
                assert got == _reference_crossings(spec, pts, columns, every), (spec.label, profile.raw())
                seen["inf"] += math.inf in combine_along(spec, columns)  # alt form "b" over a zero
                seen["gaps"] += len(gaps)
    assert seen["groups"] == {1, 2, 3, 4}, seen
    assert min(seen["flat"], seen["inf"], seen["gaps"]) > 20, seen


def test_floor_bounds_every_crossing():
    # Even unwidened, the floor never exceeds a crossing value: while
    # MERGE_TOL keeps every crossing that far from the interval's ends, a
    # rounded interpolation stays between its endpoint values. The slack
    # `optimize` adds covers crossings closer to the ends.
    rng = random.Random(6_203)
    for _ in range(DRAWS):
        profile = _random_profile(rng)
        pts = breakpoints(profile)
        for spec in NON_CONVEX:
            columns = columns_of(profile, spec, pts)
            fams = rows(columns)
            for k, floor in enumerate(_interval_floors(spec, columns, 0.0)):
                for y, v in crossing_candidates(spec, pts[k], fams[k], pts[k + 1], fams[k + 1]):
                    assert floor <= v, (spec.label, profile.raw(), y, v, floor)


def test_interior_crossing_optimum_on_a_tight_floor_is_kept():
    # The only minimizer, 6.0, is a crossing inside the kink interval
    # [5, 8.5]. That interval's floor equals the optimum exactly, so the
    # crossing is found only if the cut compares the floor against a value
    # no lower than the optimum.
    profile = build_profile([(0.0, 1), (5.0, 1), (5.0, 2), (12.0, 2)], 2)
    pts = breakpoints(profile)
    assert pts == (0.0, 2.5, 5.0, 8.5, 12.0)
    columns = columns_of(profile, IIF1, pts)
    assert _interval_floors(IIF1, columns, 0.0)[2] == 8.5
    fams = rows(columns)
    assert min(combine(IIF1, f) for f in fams) == 10.5
    got = optimize(profile, IIF1)
    assert (got.location, got.value, got.minimizers) == (6.0, 8.5, (6.0,))
