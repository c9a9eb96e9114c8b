"""Brute-force minimization over a uniform grid: the tests' cross-check of `oracle.optimize`.

`grid_optimize` evaluates every objective with numpy at each point of a
uniform grid on the agent span and keeps the least value. It shares none of
the package's objective code (`objectives.stats_along`, `assemble_along`,
`combine_along`, the interval floors), so an exact optimum it undercuts by
more than the grid spacing allows is a fault of `optimize`, not a copy of
the same one.
"""

from __future__ import annotations

import math

import numpy as np

from fairline import GroupedProfile, ObjectiveSpec, OptimalResult, UnboundedObjectiveError, eval_point

# Grid points per chunk, which bounds the (points x members) distance matrix.
_GRID_CHUNK = 1 << 14


def _distinct_weighted(profile: GroupedProfile) -> list[tuple[np.ndarray, np.ndarray, int]]:
    out = []
    for locs in profile.group_locations:
        distinct: dict[float, int] = {}
        for x in locs:
            distinct[x] = distinct.get(x, 0) + 1
        xs = np.array(sorted(distinct), dtype=float)
        counts = np.array([distinct[x] for x in sorted(distinct)], dtype=float)
        out.append((xs, counts, len(locs)))
    return out


def _distance_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|y - x| for each point y (rows) and member x (columns).

    Filled a column at a time: numpy's broadcast over the short member axis
    ran several times slower.
    """
    diffs = np.empty((len(ys), len(xs)))
    for j, x in enumerate(xs):
        np.subtract(ys, x, out=diffs[:, j])
    return np.abs(diffs, out=diffs)


def _grid_values(groups: list[tuple[np.ndarray, np.ndarray, int]], spec: ObjectiveSpec, ys: np.ndarray) -> np.ndarray:
    totals = []
    avgs = []
    spreads = []
    stats = []
    for xs, counts, size in groups:
        # Rounding keeps |y - x| monotone in x on either side of y, so the
        # largest distance to the sorted members sits at an end member.
        if spec.h == "max":
            stats.append(np.maximum(np.abs(ys - xs[0]), np.abs(ys - xs[-1])))
            continue
        diffs = _distance_matrix(xs, ys)
        total = diffs @ counts
        if spec.kind == "mtgc":
            totals.append(total)
            continue
        if spec.kind == "magc":
            avgs.append(total / size)
            continue
        if spec.kind in ("iif1", "iif2"):
            avgs.append(total / size)
            # Column by column too: a row reduction over the members is slow.
            nearest = diffs[:, 0].copy()
            for j in range(1, len(xs)):
                np.minimum(nearest, diffs[:, j], out=nearest)
            spreads.append(np.maximum(diffs[:, 0], diffs[:, -1]) - nearest)
            continue
        if spec.h == "total":
            stats.append(total)
        else:
            stats.append(total / size)
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


def grid_optimize(profile: GroupedProfile, spec: ObjectiveSpec, resolution: int) -> OptimalResult:
    """Brute-force minimum over a uniform grid of `resolution` points on the span."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    x1, xn = profile.span
    if xn - x1 <= 0.0:
        value = eval_point(profile, spec, x1)
        if math.isinf(value):
            raise UnboundedObjectiveError(f"{spec.label} is unbounded on this instance")
        return OptimalResult(x1, value, (x1,))
    grid = np.linspace(x1, xn, resolution)
    weighted = _distinct_weighted(profile)
    best_v = math.inf
    best_y = x1
    for start in range(0, resolution, _GRID_CHUNK):
        ys = grid[start : start + _GRID_CHUNK]
        vals = _grid_values(weighted, spec, ys)
        i = int(np.argmin(vals))
        v = float(vals[i])
        if v < best_v:
            best_v = v
            best_y = float(ys[i])
    if math.isinf(best_v):
        raise UnboundedObjectiveError(f"{spec.label} is +inf at every grid point")
    return OptimalResult(best_y, best_v, (best_y,))
