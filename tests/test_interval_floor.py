"""`optimize`'s interval floor cut against a search of every kink interval.

`every_interval_optimum` is a test-only reference: it evaluates the same
kinks and crossings as `optimize` and selects the optimum by the same tie
rule, but on the non-convex path it searches crossings on every interval.
The cut skips only intervals whose crossings all lie above the optimum's tie
window, so the two must agree bit for bit.

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

from fairline import ALT_OBJECTIVES, IIF1, IIF2, MAIN_OBJECTIVES, MTGC, build_profile, optima, optimize
from fairline import oracle
from fairline.model import _merge_close
from fairline.objectives import combine, eval_point
from fairline.oracle import (
    ObjectiveOverflowError,
    OptimalResult,
    UnboundedObjectiveError,
    _crossing_candidates,
    _interval_floors,
    _tie_tol,
    breakpoints,
)
from test_kink_grid import _random_profile
from test_swept_oracle import NEAR_FLOAT_MAX, _profiles, columns_of, rows

SPECS = MAIN_OBJECTIVES + ALT_OBJECTIVES
NON_CONVEX = (IIF1, IIF2) + ALT_OBJECTIVES
DRAWS = 1_000


def every_interval_optimum(profile, spec) -> OptimalResult:
    """`optimize` with crossings searched on every interval of the non-convex path."""
    x1, xn = profile.span
    if xn - x1 <= 0.0:
        value = eval_point(profile, spec, x1)
        if math.isinf(value):
            raise UnboundedObjectiveError(spec.label)
        return OptimalResult(x1, value, (x1,))
    if spec.kind in ("mtgc", "magc"):
        pts = _merge_close(sorted(set(profile.locations)))
        fams = rows(columns_of(profile, spec, pts))
        values = [combine(spec, f) for f in fams]
        i0 = values.index(min(values))
        candidates = list(zip(pts, values))
        for k in (i0 - 1, i0):
            if 0 <= k < len(pts) - 1:
                candidates.extend(_crossing_candidates(spec, pts[k], fams[k], pts[k + 1], fams[k + 1]))
    else:
        pts = breakpoints(profile)
        fams = rows(columns_of(profile, spec, pts))
        candidates = [(pts[0], combine(spec, fams[0]))]
        for k in range(len(pts) - 1):
            candidates.extend(_crossing_candidates(spec, pts[k], fams[k], pts[k + 1], fams[k + 1]))
            candidates.append((pts[k + 1], combine(spec, fams[k + 1])))
    finite = [(y, v) for y, v in candidates if not math.isinf(v)]
    if not finite:
        raise UnboundedObjectiveError(spec.label)
    vmin = min(v for _, v in finite)
    if math.isnan(vmin):
        raise ObjectiveOverflowError(spec.label)
    tied = vmin + _tie_tol(vmin)
    minimizers = _merge_close(sorted(y for y, v in finite if v <= tied))
    value = eval_point(profile, spec, minimizers[0])
    if not math.isfinite(value) and math.isinf(2.0 * profile.n * (xn - x1)):
        raise ObjectiveOverflowError(spec.label)
    return OptimalResult(minimizers[0], value, tuple(minimizers))


def _outcome(optimizer, profile, spec):
    """(location, value, minimizers), or the type of the exception raised."""
    try:
        got = optimizer(profile, spec)
    except Exception as exc:  # past the float range both may fail; they must fail alike
        return type(exc)
    return got.location, got.value, got.minimizers


def _assert_same_optimum(profile, spec, context):
    want = _outcome(every_interval_optimum, profile, spec)
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


# Profiles past the float range, where the cut must search every interval:
# an interval floor bounds no crossing whose constituents read inf - inf.
# Cutting intervals changed the first one's iif2 optimum, whose span
# overflows, and the second one's alt-a-average optimum, whose group totals
# overflow.
OVERFLOWING = [
    [(-4.145137842670136e307, 1), (0.0, 2), (-8.308694924264462e299, 3), (1.7e308, 4)],
    [(1.5e308, 1), (0.0, 2), (1.5e308, 3), (1e308, 2), (1.7e308, 1), (1.5e308, 1)],
]


@pytest.mark.parametrize("raw", [raw for raw, _ in NEAR_FLOAT_MAX] + OVERFLOWING)
def test_cut_matches_every_interval_search_near_float_max(raw):
    profile = build_profile(raw, max(g for _, g in raw))
    for spec in SPECS:
        _assert_same_optimum(profile, spec, raw)


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
    search = oracle._crossing_candidates

    def counting(*args):
        nonlocal searched
        searched += 1
        return search(*args)

    monkeypatch.setattr(oracle, "_crossing_candidates", counting)
    for profile in _profiles()[-3:]:  # the Gaussian profiles, n = 127, 130 and 133
        intervals = len(breakpoints(profile)) - 1
        for spec in (IIF1, IIF2):
            searched = 0
            optimize(profile, spec)
            assert searched < 0.1 * intervals, (profile.n, spec.label, searched, intervals)


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
                for y, v in _crossing_candidates(spec, pts[k], fams[k], pts[k + 1], fams[k + 1]):
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
