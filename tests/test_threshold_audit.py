"""Completeness of the built-in rules' candidate set, `threshold_candidates`.

Between consecutive points of that set and the deviator's true location,
every built-in rule's expected cost to the deviator must be affine in the
report. Then no report off the set can beat the best one on it, and the
audit misses no deviation. The test checks the affinity directly, on a fine
grid: a check of the least cost alone cannot fail for a rule that is
strategyproof, because the truthful report is always its minimum.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from fairline import agent_cost, build_profile, parse_mechanism
from fairline.audit import _colocated_sets, threshold_candidates

from conftest import random_pairs

PROFILES = 30
DIGITS = (0, 1, 2, 6)
RESOLUTION = 401
REL_TOL = 1e-9
# Searched on the resolution-10,001 grid as well: kept small for speed, with two agents colocated across groups.
FINE_PROFILE = ([(-1.5, 1), (0.2, 2), (0.2, 3), (1.3, 1)], 3)


def _rules(profile):
    tags = ["mdm", "ldm", "mgdm", "rm", "nrm", "mogm"]
    tags += [f"kldm:{k}" for k in range(1, profile.n + 1)]
    tags += [f"mog:{j}" for j in range(1, profile.group_count + 1)]
    return [parse_mechanism(t) for t in tags]


def _deviator_sets(profile):
    return [(i,) for i in range(profile.n)] + [s for s in _colocated_sets(profile) if len(s) > 1]


def _grid(profile, resolution):
    x1, xn = profile.span
    lo, hi = x1 - (xn - x1), xn + (xn - x1)
    step = (hi - lo) / (resolution - 1)
    return [lo + i * step for i in range(resolution)]


def _costs(rules, profile, deviators, reports):
    """costs[k][i]: rule k's expected cost to the deviators when they report reports[i]."""
    own = profile.locations[deviators[0]]
    costs = [[] for _ in rules]
    for r in reports:
        deviated = profile.deviations(deviators)(r)
        for k, rule in enumerate(rules):
            costs[k].append(agent_cost(rule.apply(deviated), own))
    return costs


def _interpolated(points, values, x):
    """The piecewise-linear interpolant through (points, values) at x, constant past the ends."""
    i = bisect_left(points, x)
    if i < len(points) and points[i] == x:
        return values[i]
    if i == 0:
        return values[0]
    if i == len(points):
        return values[-1]
    x0, x1 = points[i - 1], points[i]
    t = (x - x0) / (x1 - x0)
    return values[i - 1] + t * (values[i] - values[i - 1])


def test_cost_is_affine_between_complete_set_points():
    rng = random.Random(2024)
    checked = 0
    mismatches = []
    for _ in range(PROFILES):
        profile = build_profile(*random_pairs(rng, max_n=9, digits=DIGITS))
        rules = _rules(profile)
        x1, xn = profile.span
        tol = REL_TOL * max(xn - x1, abs(x1), abs(xn))
        grid = _grid(profile, RESOLUTION)
        for deviators in _deviator_sets(profile):
            own = profile.locations[deviators[0]]
            points = sorted(threshold_candidates(profile, deviators[0]) + [own])
            at_points = _costs(rules, profile, deviators, points)
            at_grid = _costs(rules, profile, deviators, grid)
            for k, rule in enumerate(rules):
                for x, cost in zip(grid, at_grid[k]):
                    checked += 1
                    want = _interpolated(points, at_points[k], x)
                    if abs(cost - want) > tol:
                        mismatches.append((rule.label, profile.raw(), deviators, x, cost, want))
    assert checked > 500_000
    assert not mismatches, (len(mismatches), mismatches[:3])


def test_least_cost_over_complete_set_is_least_over_grids():
    # A smoke test: strategyproof rules keep their truthful cost as the least on every set.
    rng = random.Random(2025)
    cases = [(build_profile(*FINE_PROFILE), (101, 10_001))]
    cases += [(build_profile(*random_pairs(rng, max_n=9, digits=DIGITS)), (101,)) for _ in range(11)]
    for profile, resolutions in cases:
        rules = _rules(profile)
        x1, xn = profile.span
        tol = REL_TOL * max(xn - x1, abs(x1), abs(xn))
        grid = [x for resolution in resolutions for x in _grid(profile, resolution)]
        for deviators in _deviator_sets(profile):
            own = profile.locations[deviators[0]]
            points = threshold_candidates(profile, deviators[0]) + [own]
            on_set = _costs(rules, profile, deviators, points)
            on_grid = _costs(rules, profile, deviators, grid)
            for k, rule in enumerate(rules):
                best = min(on_set[k])
                assert min(on_grid[k]) >= best - tol, (rule.label, profile.raw(), deviators)
                assert on_set[k][-1] <= best + tol, (rule.label, profile.raw(), deviators)
