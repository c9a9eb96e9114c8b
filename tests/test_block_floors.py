"""The coarse pass of `optima` against a sweep of every kink.

On a kink grid of at least `_BLOCK` blocks of `_BLOCK` kinks, `optima` first
sweeps every `_BLOCK`-th kink, bounds the objective on each block between
them from below by the constituents' Lipschitz constants, and sweeps only
the blocks whose floor reaches the tie window of the least coarse value.
A dropped block holds no kink or crossing that could be the optimum or tie
with it, so every result must match, bit for bit, the one taken with the
pass off (`_BLOCK` past any grid), and so must every error.
"""

from __future__ import annotations

import random
from operator import add

import pytest

from fairline import ALT_OBJECTIVES, IIF1, IIF2, MAIN_OBJECTIVES, build_profile, optima, optimize
from fairline import oracle
from fairline.objectives import _assembler, _stats_at, combine, constituents
from fairline.floors import _slopes
from fairline.oracle import breakpoints
from test_kink_grid import crossing_candidates
from test_swept_oracle import NEAR_FLOAT_MAX, columns_of, rows

SPECS = MAIN_OBJECTIVES + ALT_OBJECTIVES
# Every per-group statistic `_stats_at` reads, as its flags.
EVERY_STATISTIC = 1 | 2 | 4 | 8
DRAWS = 100


def _raw(rng: random.Random) -> tuple[list[tuple[float, int]], int]:
    """Seeded pairs for n in 64–400 and m in 1–5, with colocated agents and rounded coordinates.

    Each group is a Gaussian cluster around its own centre, on a scale of 1,
    100 or 1e4; group sizes are drawn from random weights, so some groups
    hold one or two members. About 20% of agents copy an earlier agent's
    location, often across groups.
    """
    n = rng.randint(64, 400)
    m = rng.randint(1, 5)
    scale = rng.choice((1.0, 100.0, 1e4))
    places = rng.choice((1, 2, 3, None))
    centres = [rng.uniform(-scale, scale) for _ in range(m)]
    weights = [rng.random() ** 3 for _ in range(m)]
    labels = list(range(1, m + 1)) + rng.choices(range(1, m + 1), weights, k=n - m)
    raw: list[tuple[float, int]] = []
    for g in labels:
        if raw and rng.random() < 0.2:
            x = rng.choice(raw)[0]
        else:
            x = rng.gauss(centres[g - 1], scale * rng.choice((0.05, 0.3, 1.0)))
            x = x if places is None else round(x, places)
        raw.append((x, g))
    return raw, m


def _profiles(scale: float):
    rng = random.Random(27_018)
    for _ in range(DRAWS):
        raw, m = _raw(rng)
        yield build_profile([(x * scale, g) for x, g in raw], m)


def _results(profile, specs):
    """`repr` of each spec's `optimize` and of `optima` of all of `specs`, or the type of what each raises."""
    out = []
    for call in [lambda spec=spec: optimize(profile, spec) for spec in specs] + [lambda: optima(profile, specs)]:
        try:
            out.append(repr(call()))
        except Exception as exc:
            out.append(type(exc).__name__)
    return out


def _assert_pass_changes_nothing(monkeypatch, profiles):
    """Every result with the coarse pass on equals the one with it off; returns how many grids it thinned."""
    thinned = 0
    sweep = oracle._sweep

    def counted(profile, pts, specs):
        nonlocal thinned
        got = sweep(profile, pts, specs)
        thinned += len(got[0]) < len(pts)
        return got

    for profile in profiles:
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_sweep", counted)
            on = _results(profile, SPECS)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_BLOCK", 10**9)
            off = _results(profile, SPECS)
        assert on == off, profile.raw()
    return thinned


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e15, 1e303])
def test_coarse_pass_changes_no_result(monkeypatch, scale):
    # 1e303 puts the profiles near the float maximum, where `optima` works
    # on them scaled by a power of two.
    thinned = _assert_pass_changes_nothing(monkeypatch, _profiles(scale))
    assert thinned > DRAWS, thinned  # of 12 grids a profile, the pass thinned many


def test_coarse_pass_changes_no_result_near_float_max(monkeypatch):
    # These grids are too small for the pass, which must leave them as they are.
    profiles = [build_profile(raw, 2) for raw, _ in NEAR_FLOAT_MAX]
    assert _assert_pass_changes_nothing(monkeypatch, profiles) == 0


def test_block_floor_bounds_every_kink_and_crossing(monkeypatch):
    # The floors `optima` takes, slack included, against every kink and
    # crossing value of their blocks on the whole grid. Unwidened, about 1%
    # of the blocks here have a floor above such a value by a rounding
    # error, where a constituent runs at its full slope across the block.
    taken = []
    block_floors = oracle._block_floors

    def kept(spec, columns, widths, slopes, slack):
        taken.append(block_floors(spec, columns, widths, slopes, slack))
        return taken[-1]

    monkeypatch.setattr(oracle, "_block_floors", kept)
    rng = random.Random(5_113)
    blocks = 0
    for _ in range(DRAWS):
        profile = build_profile(*_raw(rng))
        for spec in SPECS:
            taken.clear()
            optimize(profile, spec)
            if not taken:
                continue
            pts = oracle._kinks(profile, spec)
            fams = rows(columns_of(profile, spec, pts))
            values = [combine(spec, f) for f in fams]
            (floors,) = taken
            for j, floor in enumerate(floors):
                lo, hi = j * oracle._BLOCK, min((j + 1) * oracle._BLOCK, len(pts) - 1)
                for k in range(lo, hi):
                    crossings = crossing_candidates(spec, pts[k], fams[k], pts[k + 1], fams[k + 1])
                    inside = values[k : k + 2] + [v for _, v in crossings]
                    assert all(floor <= v for v in inside), (spec.label, profile.raw(), j)
                blocks += 1
    assert blocks > 10_000, blocks


def test_coarse_pass_sweeps_under_half_of_the_grid(monkeypatch):
    # A profile like the `sweep` benchmark's: n = 132 in four Gaussian
    # clusters of sizes 54, 39, 26 and 13.
    rng = random.Random(132)
    raw = []
    for g, size in enumerate((54, 39, 26, 13), start=1):
        centre = rng.uniform(0.2, 0.8)
        raw += [(centre + rng.gauss(0.0, 0.2), g) for _ in range(size)]
    profile = build_profile(raw, 4)
    swept = []
    stats_along = oracle.stats_along

    def counted(profile, ys, specs):
        swept.append(len(ys))
        return stats_along(profile, ys, specs)

    monkeypatch.setattr(oracle, "stats_along", counted)
    optima(profile, (IIF1, IIF2))
    grid = len(breakpoints(profile))
    assert len(swept) == 2  # the coarse kinks, then the kept blocks
    assert sum(swept) < grid / 2, (swept, grid)


def test_lipschitz_constants_hold():
    # Each statistic moves by at most its constant per unit of y between any
    # two points, and each objective's families by at most the constants
    # `_assembler` builds from those, as the coarse pass takes them.
    rng = random.Random(3_301)
    for _ in range(300):
        n = rng.randint(1, 12)
        m = rng.randint(1, min(n, 4))
        raw = [(round(rng.uniform(-2.0, 2.0), rng.choice((1, 3))), 1 + i % m) for i in range(n)]
        profile = build_profile(raw, m)
        for _ in range(10):
            a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            tol = 1e-12 * (1.0 + n * 5.0)
            pairs = zip(_stats_at(profile, EVERY_STATISTIC, a), _stats_at(profile, EVERY_STATISTIC, b), _slopes(profile))
            for at_a, at_b, slopes in pairs:
                for va, vb, slope in zip(at_a, at_b, slopes):
                    assert abs(va - vb) <= slope * abs(a - b) + tol, (profile.raw(), a, b, slope)
            for spec in SPECS:
                constants = _assembler(spec, add)(*_slopes(profile))
                fams = zip(constituents(profile, spec, a), constituents(profile, spec, b), constants)
                for at_a, at_b, slopes in fams:
                    for va, vb, slope in zip(at_a, at_b, slopes):
                        assert abs(va - vb) <= slope * abs(a - b) + tol, (spec.label, profile.raw(), a, b)
