"""Reference evaluator for the benchmark's output checks.

Written from the definitions of the objectives and placement rules, with
nothing imported from `fairline`, so that a check compares the program with a
computation made separately from it. A profile is a list of groups, each a
list of member locations; a placement is a list of (point, probability).

Agent i of group j pays |y - x_i| for a facility at y (in expectation for a
lottery). With T_j the total, A_j = T_j / |G_j| the average and
S_j = max_i cost - min_i cost the spread of group j:

- mtgc = max_j T_j
- magc = max_j A_j
- iif1 = max_j A_j + max_j S_j
- iif2 = max_j (A_j + S_j)

Each is a sum of one or two maxima over groups of "constituents" (T, A, S or
A + S), and every constituent is linear between consecutive kinks, which lie
among the agent locations and the same-group midpoints.
"""

from __future__ import annotations

import math

import numpy as np

Groups = list[list[float]]
Placement = list[tuple[float, float]]


def _families(groups: Groups, objective: str, ys: np.ndarray) -> list[np.ndarray]:
    """Constituent values at every point, one (m, len(ys)) array per maximum."""
    totals, averages, spreads = [], [], []
    for locs in groups:
        costs = np.abs(ys[:, None] - np.asarray(locs, dtype=float)[None, :])
        total = costs.sum(axis=1)
        totals.append(total)
        averages.append(total / len(locs))
        if objective in ("iif1", "iif2"):
            spreads.append(costs.max(axis=1) - costs.min(axis=1))
    if objective == "mtgc":
        return [np.array(totals)]
    if objective == "magc":
        return [np.array(averages)]
    if objective == "iif1":
        return [np.array(averages), np.array(spreads)]
    if objective == "iif2":
        return [np.array(averages) + np.array(spreads)]
    raise ValueError(f"no reference for objective {objective!r}")


def values(groups: Groups, objective: str, ys) -> np.ndarray:
    """Objective value at each facility point in `ys`."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    return sum(f.max(axis=0) for f in _families(groups, objective, ys))


def value(groups: Groups, objective: str, placement: Placement) -> float:
    """Expected objective value of a placement."""
    points = [pt for pt, _ in placement]
    probs = np.array([p for _, p in placement])
    return float(probs @ values(groups, objective, points))


def kinks(groups: Groups) -> np.ndarray:
    """Sorted distinct agent locations and same-group pairwise midpoints."""
    pts = [x for locs in groups for x in locs]
    for locs in groups:
        a = np.asarray(locs, dtype=float)
        i, j = np.triu_indices(len(a), k=1)
        pts.extend(((a[i] + a[j]) / 2.0).tolist())
    return np.unique(np.asarray(pts, dtype=float))


def optimum(groups: Groups, objective: str) -> float:
    """Exact minimum over all facility locations.

    Between consecutive kinks each maximum is a maximum of lines, so the
    objective there is convex and piecewise linear, with its own kinks only
    where two lines of one family cross. The minimum is therefore attained at
    a kink or at such a crossing. Outside the agent span every objective is
    nondecreasing moving away, so the kinks inside the span suffice.
    """
    ks = kinks(groups)
    fams = _families(groups, objective, ks)
    candidates = [ks]
    m = len(groups)
    for fam in fams:
        for i in range(m):
            for j in range(i + 1, m):
                d = fam[i] - fam[j]
                da, db = d[:-1], d[1:]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = da / (da - db)
                inside = (da != db) & (t > 0.0) & (t < 1.0)
                candidates.append(ks[:-1][inside] + t[inside] * (ks[1:] - ks[:-1])[inside])
    return float(values(groups, objective, np.concatenate(candidates)).min())


def _left_median(locs: list[float]) -> float:
    ordered = sorted(locs)
    return ordered[(len(ordered) + 1) // 2 - 1]


def placement(groups: Groups, rule: str) -> Placement:
    """Facility placement of a rule label (mdm, mgdm, nrm, kldm:K or mean)."""
    everyone = sorted(x for locs in groups for x in locs)
    if rule == "mdm":
        return [(_left_median(everyone), 1.0)]
    if rule == "mgdm":
        sizes = [len(locs) for locs in groups]
        return [(_left_median(groups[sizes.index(max(sizes))]), 1.0)]
    if rule == "nrm":
        medians = [_left_median(locs) for locs in groups]
        lo, hi = min(medians), max(medians)
        if lo == hi:
            return [(lo, 1.0)]
        return [(lo, 0.25), (hi, 0.25), ((lo + hi) / 2.0, 0.5)]
    if rule.startswith("kldm:"):
        return [(everyone[int(rule[5:]) - 1], 1.0)]
    if rule == "mean":
        return [(mean_location(everyone), 1.0)]
    raise ValueError(f"no reference for rule {rule!r}")


def mean_location(locations: list[float]) -> float:
    """Placement of the mean rule: the average report."""
    return math.fsum(locations) / len(locations)


def ratio(groups: Groups, rule: str, objective: str) -> float:
    """Rule value over the exact optimum; 1 when both are 0, inf when only the optimum is."""
    v = value(groups, objective, placement(groups, rule))
    opt = optimum(groups, objective)
    if opt == 0.0:
        return 1.0 if v == 0.0 else math.inf
    return v / opt
