"""The one-pass swept evaluator behind `optimize` against the direct sums.

`assemble_along` of `stats_along` gives `constituents` at every point of an
ascending list, as one column per group, in one left-to-right pass per
group. Spreads and
farthest-member distances must match the direct evaluator bit for bit;
totals and averages come from running sums, so they match to rounding,
except that a group whose members all sit at the point reads exactly 0.0.
`combine_along` must give `combine` of each point's families bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from conftest import random_pairs
from fairline import ALT_OBJECTIVES, IIF1, MAIN_OBJECTIVES, MTGC, build_profile, optimize, parse_objective
from fairline import objectives, oracle
from fairline.objectives import (
    _spread,
    _sweep_group,
    assemble_along,
    combine,
    combine_along,
    constituents,
    stats_along,
)
from fairline.oracle import UnboundedObjectiveError, breakpoints
from test_kink_grid import NON_CONVEX, PROFILES, _random_profile, all_pairs_optimum

SPECS = MAIN_OBJECTIVES + ALT_OBJECTIVES
# Families each spec combines that hold only spreads or farthest distances.
EXACT_FAMILIES = {"iif1": (1,), "alt-a-max": (0,), "alt-b-max": (0,)}


def columns_of(profile, spec, ys):
    """The families `spec` combines at each of the ascending points `ys`, one column per group."""
    return assemble_along(spec, stats_along(profile, ys, (spec,)))


def rows(columns):
    """`columns_of`'s columns as the families at each point, one value per group."""
    return [tuple([column[k] for column in family] for family in columns) for k in range(len(columns[0][0]))]


def _bits(values):
    return [v.hex() for v in values]


def _profiles():
    rng = random.Random(90_412)
    profiles = [build_profile(*random_pairs(rng)) for _ in range(300)]
    for n in (127, 130, 133):
        raw = [(rng.gauss(0.5, 0.2), 1 + i % 4) for i in range(n)]
        raw += [(raw[i][0], 1 + (i + 1) % 4) for i in range(0, n, 9)]  # colocated across groups
        profiles.append(build_profile(raw, 4))
    return profiles


def test_swept_constituents_match_direct_ones():
    for k, profile in enumerate(_profiles()):
        ys = breakpoints(profile)
        x1, xn = profile.span
        tol = 1e-12 * profile.n * max(abs(x1), abs(xn))
        for spec in SPECS:
            swept = rows(columns_of(profile, spec, ys))
            assert len(swept) == len(ys)
            for y, got in zip(ys, swept):
                want = constituents(profile, spec, y)
                context = (k, spec.label, y, got, want)
                assert len(got) == len(want), context
                for f, (got_f, want_f) in enumerate(zip(got, want)):
                    if f in EXACT_FAMILIES.get(spec.label, ()):
                        assert got_f == want_f, context
                    else:
                        assert all(abs(g - w) <= tol for g, w in zip(got_f, want_f)), context


def test_group_wholly_at_the_point_reads_exact_zero():
    rng = random.Random(7)
    checked = 0
    for _ in range(1000):
        profile = build_profile(*random_pairs(rng, max_n=9, digits=(0, 1)))
        ys = breakpoints(profile)
        for spec in (MTGC, parse_objective("magc"), IIF1, parse_objective("alt-a-average")):
            for y, fams in zip(ys, rows(columns_of(profile, spec, ys))):
                for locs, value in zip(profile.group_locations, fams[0]):
                    if locs[0] == locs[-1] == y:
                        assert value == 0.0, (profile.raw(), spec.label, y, value)
                        checked += 1
    assert checked > 100
    # Eight members at 0.1: their raw sum 0.7999999999999999 is not 8 * 0.1.
    profile = build_profile([(0.1, 1)] * 8 + [(0.7, 2), (-1.3, 2)], 2)
    (fams,) = rows(columns_of(profile, MTGC, [0.1]))
    assert fams[0][0] == 0.0


def test_swept_points_may_lie_outside_the_members():
    profile = build_profile([(0.0, 1), (1.0, 1), (5.0, 2)], 2)
    ys = [-2.0, 0.0, 0.5, 3.0, 7.5]
    for spec in SPECS:
        assert rows(columns_of(profile, spec, ys)) == [constituents(profile, spec, y) for y in ys]
    assert columns_of(profile, MTGC, []) == ([[], []],)


def test_combined_columns_match_combine_at_every_point():
    checked_single_group = 0
    for k, profile in enumerate(_profiles()):
        ys = breakpoints(profile)
        for spec in SPECS:
            columns = columns_of(profile, spec, ys)
            want = [combine(spec, fams) for fams in rows(columns)]
            assert _bits(combine_along(spec, columns)) == _bits(want), (k, spec.label)
        checked_single_group += profile.group_count == 1
    assert checked_single_group > 20


# Sorted member tuples: one member, colocated members, a colocated pair
# inside the group, and members spread over magnitudes.
SPREAD_GROUPS = [
    (0.3,),
    (0.3, 0.3, 0.3),
    (-1.0, 0.0, 0.0, 2.5, 4.0),
    (1e-13, 3e-13, 3e-13, 7e-13),
    (-2e15, 1.0, 3e15),
    (0.1, 0.2, 0.7),
]


def test_swept_spreads_match_spread_in_every_branch():
    branches = dict.fromkeys(
        ("left of the members", "at first", "interior", "at an interior member", "at last", "right of the members"), 0
    )
    rng = random.Random(52)
    groups = list(SPREAD_GROUPS)
    for _ in range(200):
        size = rng.randint(1, 6)
        locs = [round(rng.uniform(-1.0, 1.0), rng.choice((1, 3, 17))) for _ in range(size)]
        groups.append(tuple(sorted(locs + rng.sample(locs, rng.randint(0, size)))))
    for locs in groups:
        first, last = locs[0], locs[-1]
        width = max(last - first, abs(first), 1e-300)
        ys = set(locs) | {(a + b) / 2.0 for a, b in zip(locs, locs[1:])}
        ys |= {first - width, first - width / 3.0, last + width / 7.0, last + width}
        ys = sorted(ys)
        _, spreads = _sweep_group(locs, ys, True)
        assert _bits(spreads) == _bits(_spread(locs, y) for y in ys), locs
        for y in ys:
            if y < first:
                branches["left of the members"] += 1
            elif y == first:
                branches["at first"] += 1
            elif y > last:
                branches["right of the members"] += 1
            elif y == last:
                branches["at last"] += 1
            elif y in locs:
                branches["at an interior member"] += 1
            else:
                branches["interior"] += 1
    assert min(branches.values()) > 20, branches


# (raw pairs, {objective: (location, value, minimizers)}) for two groups.
NEAR_FLOAT_MAX = [
    # Raw prefix sums of these locations overflow; offsets from each
    # group's first member do not.
    (
        [(1e308, 1), (1.5e308, 1), (1.2e308, 2)],
        {
            "mtgc": (1e308, 5e307, (1e308, 1.2e308, 1.5e308)),
            "iif1": (1.25e308, 2.5e307, (1.25e308,)),
            "alt-a-total": (1.5e308, 1.9999999999999992e307, (1.5e308,)),
        },
    ),
    # Here the offsets themselves sum past the float maximum. On [0, 1e308]
    # the group totals are 2e308 - y and 1e308 - y, so alt-a-total is 1e308
    # everywhere there; it is found at 0 only on the profile scaled by a
    # power of two, where 2e308 does not overflow.
    (
        [(0.0, 1), (1e308, 1), (1e308, 1), (1e308, 2)],
        {
            "mtgc": (1e308, 1e308, (1e308,)),
            "iif1": (5e307, 5e307, (5e307,)),
            "alt-a-total": (0.0, 1e308, (0.0, 5e307, 1e308)),
        },
    ),
]


@pytest.mark.parametrize("raw, expected", NEAR_FLOAT_MAX)
def test_near_float_max_profiles_keep_their_optima(raw, expected):
    profile = build_profile(raw, 2)
    for label, (location, value, minimizers) in expected.items():
        got = optimize(profile, parse_objective(label))
        assert (got.location, got.value, got.minimizers) == (location, value, minimizers), label


def test_exact_zero_at_a_kink_is_found_exactly():
    # The all-pairs reference evaluates each kink with direct sums. Wherever
    # its minimizer is also a kink of `optimize`'s own grid and reads exactly
    # 0.0, the swept optimum must read exactly 0.0 too. (A zero that only a
    # crossing reaches is rounding luck either way.) A ratio (form "b") is
    # never below 1.
    rng = random.Random(20211)
    zeros = 0
    for k in range(PROFILES):
        profile = _random_profile(rng)
        spec = NON_CONVEX[k % len(NON_CONVEX)]
        if spec.form == "b":
            continue
        try:
            ref_y, ref_v = all_pairs_optimum(profile, spec)
        except UnboundedObjectiveError:
            continue
        if ref_v != 0.0:
            continue
        if ref_y not in breakpoints(profile):
            continue
        zeros += 1
        assert optimize(profile, spec).value == 0.0, (k, spec.label, profile.raw(), ref_y)
    assert zeros > 50


def test_optimize_sums_directly_only_for_its_reported_value(monkeypatch):
    rng = random.Random(2000)
    m = 4
    profile = build_profile([(rng.uniform(-1.0, 1.0), 1 + i % m) for i in range(2000)], m)
    calls = 0
    direct = objectives._total

    def counting_total(locs, y):
        nonlocal calls
        calls += 1
        return direct(locs, y)

    monkeypatch.setattr(objectives, "_total", counting_total)
    for spec in (MTGC, IIF1, parse_objective("alt-a-average")):
        calls = 0
        result = optimize(profile, spec)
        assert math.isfinite(result.value)
        # One direct sum per group, for the final eval_point; the O(n) kinks
        # were all swept.
        assert calls <= 2 * m, (spec.label, calls)


def test_one_objective_sweeps_only_what_it_reads(monkeypatch):
    # `fairline search` makes thousands of one-objective calls, so each must
    # sweep for its own statistics alone: spreads only for iif1 and iif2, and
    # no group sweep at all for alt h="max", which reads only the
    # farthest-member distances.
    profile = build_profile([(0.0, 1), (0.4, 1), (0.9, 1), (0.2, 2), (1.0, 2), (0.7, 3)], 3)
    stats_calls, spreads_asked = [], []
    sweep_group, stats_along = objectives._sweep_group, oracle.stats_along

    def counted_sweep(locs, ys, spreads):
        spreads_asked.append(spreads)
        return sweep_group(locs, ys, spreads)

    def counted_stats(profile, ys, specs):
        stats_calls.append(tuple(specs))
        return stats_along(profile, ys, specs)

    monkeypatch.setattr(objectives, "_sweep_group", counted_sweep)
    # `oracle` calls `stats_along` by the name it imported.
    monkeypatch.setattr(oracle, "stats_along", counted_stats)
    for spec in SPECS:
        stats_calls.clear()
        spreads_asked.clear()
        optimize(profile, spec)
        assert stats_calls == [(spec,)], spec.label
        if spec.h == "max":
            assert spreads_asked == [], spec.label
        else:
            assert spreads_asked == [spec.kind in ("iif1", "iif2")] * profile.group_count, spec.label


# sha256 of `_optimize_outcomes()`, last taken when `optima` began to work
# near the float maximum on the profile scaled by a power of two, which moved
# 2 rows, alt-a-total and alt-b-total on the second NEAR_FLOAT_MAX profile.
# `tests/optimize_rows.py` dumps the rows and names those that move.
OPTIMIZE_DIGEST = "a8959c905e1e9b823676ccf9a6ffe1cf5726ffd7d371416a3611f9910fbaffbe"


def _optimize_profiles():
    """The seeded profiles whose `optimize` results `OPTIMIZE_DIGEST` pins."""
    rng = random.Random(31_337)
    profiles = []
    for scale in (1.0, 1e-13, 1e15):
        for _ in range(1000):
            profiles.append(_random_profile(rng))
        for _ in range(20):
            n = rng.randint(20, 60)
            m = rng.randint(1, 5)
            raw = [(rng.gauss(0.0, 1.0), 1 + i % m) for i in range(n)]
            raw += [(raw[i][0], 1 + (i + 1) % m) for i in range(0, n, 7)]  # colocated across groups
            profiles.append(build_profile(raw, m))
        profiles[-1020:] = [
            build_profile([(x * scale, g) for x, g in p.raw()], p.group_count) for p in profiles[-1020:]
        ]
    profiles += _profiles()[-3:]
    profiles += [build_profile(raw, 2) for raw, _ in NEAR_FLOAT_MAX]
    return profiles


def _optimize_outcomes():
    """`repr` of every seeded `optimize` result, or the exception type it raises."""
    for profile in _optimize_profiles():
        for spec in SPECS:
            try:
                yield repr(optimize(profile, spec))
            except Exception as exc:
                yield type(exc).__name__


def test_optimize_outputs_are_pinned():
    digest = hashlib.sha256()
    for line in _optimize_outcomes():
        digest.update(line.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == OPTIMIZE_DIGEST
