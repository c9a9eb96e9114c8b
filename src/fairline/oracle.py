"""Exact minimization of objectives over facility locations.

Every per-group constituent (total, average, max cost, min cost) is piecewise
linear in the facility location, with kinks only at agent locations, at
midpoints of consecutive members of a group, and at the midpoint of a group's
two extreme members: at most 2n points (`breakpoints`). Between consecutive
points of that grid each constituent is a straight line, so an objective built
from maxima of constituents can only attain its minimum at a grid point or at
a crossing of two constituent lines inside an interval. Enumerating those
candidates gives an exact global optimum.

`optima(profile, specs)` returns the optima of one or more objectives on
one profile, one per objective in order, and `optimize(profile, spec)` is
`optima` of one objective. Each optimum evaluates every kink first, in one
left-to-right sweep per group: `objectives.stats_along` walks each group's
sorted members with one pointer, so every kink costs O(m) instead of an
O(n) sum per group.
mtgc and magc search the same kinks (the agent locations), and so do all the
other objectives (`breakpoints`), so the objectives given together share
one sweep per kink grid, which takes every statistic they read and no other.
The pass stays column-major: `objectives.assemble_along` builds each
objective's families from the sweep, one column per group with the group's
value at every kink; `objectives.combine_along` folds the columns over the
groups into the kink values, and `_interval_floors` reads the same columns.
Only an interval that is searched has its two kinks' values gathered into
rows (`_row`). The crossings, at O(m^2) per interval, are searched only where
they could reach the optimum. Inside an interval every constituent lies
between its two endpoint values, so the objective there is at least an
"interval floor" built from them (`_interval_floors`). An interval whose
floor, less a rounding slack, lies above the best kink value's tie window
holds no crossing that could set the optimum or tie with it: the optimum is
at most the best kink value, and the tie window grows with the value it is
taken around. So skipping those intervals changes neither the optimum nor
the minimizers. On Gaussian profiles of about 130 agents in 4 groups, iif1
and iif2 search about 1% of the intervals. A call is O(n·m^2) at worst,
against O(n^2) for a direct sum at every kink.
Which constituents an objective combines (`objectives._assembler`) and how
it combines them (`ObjectiveSpec._combiner`: iif1's sum, alt's gap, alt's
ratio with its 0/0 convention) are written once and serve both `eval_point`
at one point and the column pass at every kink, so the rule's side and the
optimum's side of every ratio share one copy of each formula, and the value
an optimum reports is `eval_point` at the minimizer. The tests check it
against an independent numpy grid search (`tests/grid_oracle.py`), which
deliberately shares none of it.

Outside the agent span every objective is nondecreasing moving away, so the
search is confined to [x_1, x_n]. For the ratio family (alt form "b") each
linear piece of the quotient is monotone between candidates, so the same
candidate set stays exact; candidates where the objective is +inf are skipped
unless no finite candidate exists.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from operator import add, sub

from .mechanisms import MechanismLike, as_mechanism_fn
from .model import MERGE_TOL, FacilityOutcome, GroupedProfile, _merge_close
from .objectives import (
    GroupStats,
    ObjectiveSpec,
    assemble_along,
    combine,
    combine_along,
    eval_outcome,
    eval_point,
    stats_along,
)

# A constituent line interpolated in floats, va + t·(vb − va) with t in
# (0, 1), lands within 1.5·eps·max(|va|, |vb|) of [min(va, vb), max(va, vb)].
# On the span a group's total is at most its size times the span and any
# other constituent at most twice the span, so 2·n·span bounds every rounded
# constituent. The interval floor widens its bounds by this factor times
# 2·n·span, which also covers the rounding of the widening itself. When
# 2·n·span overflows the slack is inf and no interval is cut: a constituent
# may overflow too, and no floor bounds an interpolated inf - inf.
_FLOOR_SLACK = 8.0 * sys.float_info.epsilon

# Objectives that are convex in the facility location: max of convex totals.
_CONVEX = ("mtgc", "magc")


class UnboundedObjectiveError(ValueError):
    """Every candidate location evaluates to +inf (degenerate ratio instance)."""


class ObjectiveOverflowError(ValueError):
    """The objective's candidate values leave the float range, so no optimum can be told.

    Raised when the least candidate value is NaN, since past the float
    maximum a constituent reads inf - inf, and when the value re-evaluated
    at the minimizer is inf or NaN while 2·n·span overflows.
    """


@dataclass(frozen=True)
class OptimalResult:
    """A global minimizer, its value, and every candidate point achieving it."""

    location: float
    value: float
    minimizers: tuple[float, ...]


@dataclass(frozen=True)
class RatioReport:
    """Mechanism value against the exact optimum.

    When the optimum is exactly zero the ratio is 1 if the mechanism value is
    also zero and +inf otherwise.
    """

    mechanism_value: float
    optimal: OptimalResult
    ratio: float


def breakpoints(profile: GroupedProfile) -> tuple[float, ...]:
    """Kink grid: agent locations, consecutive same-group midpoints, extreme midpoints.

    For each group it holds the midpoint of every two consecutive members and
    the midpoint of its two extreme members, so at most 2n points in all. The
    same set is returned for every objective, and it holds every kink of every
    constituent:
    - a group's total (and average) cost kinks only at its members;
    - the distance to its nearest member kinks only at members and at
      consecutive midpoints;
    - the distance to its farthest member (alt h="max", and the max part of
      the iif spread) kinks only at its members and its extreme midpoint.
    """
    pts = set(profile.locations)
    for locs in profile.group_locations:
        pts.update((a + b) / 2.0 for a, b in zip(locs, locs[1:]))
        pts.add((locs[0] + locs[-1]) / 2.0)
    return tuple(_merge_close(sorted(pts)))


def _crossing_candidates(
    spec: ObjectiveSpec,
    a: float,
    fam_a: tuple[list[float], ...],
    b: float,
    fam_b: tuple[list[float], ...],
) -> list[tuple[float, float]]:
    """Objective values at interior crossings of constituent lines on [a, b]."""
    ts: set[float] = set()
    for va, vb in zip(fam_a, fam_b):
        for i in range(len(va)):
            for j in range(i + 1, len(va)):
                da = va[i] - va[j]
                db = vb[i] - vb[j]
                if da == db:
                    continue
                t = da / (da - db)
                if MERGE_TOL < t < 1.0 - MERGE_TOL:
                    ts.add(t)
    out = []
    for t in sorted(ts):
        y = a + t * (b - a)
        fams_t = tuple(
            [va[i] + t * (vb[i] - va[i]) for i in range(len(va))]
            for va, vb in zip(fam_a, fam_b)
        )
        out.append((y, combine(spec, fams_t)))
    return out


def _interval_floors(spec: ObjectiveSpec, columns: tuple[list[list[float]], ...], slack: float) -> list[float]:
    """Per interval between consecutive kinks, a lower bound of the objective at its crossings.

    `columns` holds the constituent families at the kinks as `assemble_along`
    returns them, one column per group. Between two kinks every constituent
    is a line, so inside the interval it lies between its two endpoint
    values, widened by `slack` for rounding. Each family's maximum is then
    at least the largest of the smaller endpoint values, and alt's minimum
    at most the smallest of the larger ones. Every objective grows with its
    maxima and shrinks with alt's minimum, and float rounding keeps that
    order, so combining the bounds gives a floor that no rounded crossing
    value inside the interval goes below. Alt form "b" gets no floor (-inf)
    where the bound on its divisor is not positive.
    """
    # Conditional expressions, not min() and max() calls: this runs once per
    # group and interval, and a builtin call costs several times as much.
    highs = []
    lows: list[float] = []
    for family in columns:
        high: list[float] = []
        # g: one group's constituent at every kink, in order.
        for i, g in enumerate(family):
            smaller = [a if a < b else b for a, b in zip(g, g[1:])]
            high = smaller if i == 0 else [h if h > s else s for h, s in zip(high, smaller)]
            if spec.kind == "alt":
                larger = [a if a > b else b for a, b in zip(g, g[1:])]
                lows = larger if i == 0 else [x if x < y else y for x, y in zip(lows, larger)]
        highs.append([h - slack for h in high])
    if spec.kind != "alt":
        return list(map(add, *highs)) if spec.kind == "iif1" else highs[0]
    lows = [x + slack for x in lows]
    if spec.form == "a":
        return list(map(sub, highs[0], lows))
    return [high / low if low > 0.0 else -math.inf for high, low in zip(highs[0], lows)]


def _row(columns: tuple[list[list[float]], ...], k: int) -> tuple[list[float], ...]:
    """The families at kink `k`, one value per group, as `constituents` gives them at that kink."""
    return tuple([column[k] for column in family] for family in columns)


def _constituent_bound(profile: GroupedProfile) -> float:
    """2·n·span, which bounds every constituent on the span; inf when it overflows."""
    x1, xn = profile.span
    return 2.0 * profile.n * (xn - x1)


def _tie_tol(value: float) -> float:
    """How far above the optimum `value` a candidate still counts as tied with it.

    The tolerance tracks rounding noise only, so every listed minimizer
    re-evaluates to the optimum far inside the package-wide 1e-9 tolerance.
    `value + _tie_tol(value)` grows with `value`, which is what lets
    `_select` prune intervals against its best kink before it knows the
    optimum.
    """
    return 1e-12 * max(1.0, abs(value))


def optimize(profile: GroupedProfile, spec: ObjectiveSpec) -> OptimalResult:
    """Exact global minimum of the objective over facility locations: `optima` of `spec` alone."""
    return optima(profile, (spec,))[0]


def optima(profile: GroupedProfile, specs: Sequence[ObjectiveSpec]) -> tuple[OptimalResult, ...]:
    """The exact optimum of each objective in `specs` on one profile, in `specs` order.

    Objectives that search the same kinks share one group sweep: mtgc and
    magc the merged agent locations, every other objective `breakpoints`.
    That sweep (`stats_along`) takes every statistic the objectives of
    `specs` on those kinks read. What one optimum reads of it does not
    depend on the other objectives, so each result is bit-identical whichever
    specs share it.

    Each optimum evaluates every kink (kept as per-group columns through
    `combine_along` and `_interval_floors`), then the crossings inside the
    intervals that can hold the optimum: the two around the best kink for
    the convex mtgc and magc, and otherwise every interval whose floor
    reaches the best kink value's tie window (see the module docstring).
    O(n·m^2) at worst for n agents in m groups. It is the leftmost
    minimizer, with its value re-evaluated by `eval_point`; `minimizers`
    lists every evaluated candidate tied with the optimum up to rounding
    noise (`_tie_tol`). Raises the first error any objective raises:
    UnboundedObjectiveError when every candidate is +inf, and
    ObjectiveOverflowError when the least candidate value is NaN or when the
    value at the minimizer is not finite while 2·n·span overflows; only
    coordinates near the float maximum bring either about.
    """
    x1, xn = profile.span
    sweeps: dict[bool, tuple[Sequence[float], GroupStats]] = {}
    results = []
    for spec in specs:
        if xn - x1 <= 0.0:
            # Every agent sits at x1.
            value = eval_point(profile, spec, x1)
            if math.isinf(value):
                raise UnboundedObjectiveError(f"{spec.label} is unbounded on this instance")
            results.append(OptimalResult(x1, value, (x1,)))
            continue
        convex = spec.kind in _CONVEX
        if convex not in sweeps:
            pts = _kinks(profile, spec)
            sharing = [s for s in specs if (s.kind in _CONVEX) == convex]
            sweeps[convex] = pts, stats_along(profile, pts, sharing)
        pts, stats = sweeps[convex]
        results.append(_select(profile, spec, pts, assemble_along(spec, stats)))
    return tuple(results)


def _kinks(profile: GroupedProfile, spec: ObjectiveSpec) -> Sequence[float]:
    """The points whose values `_select` needs: the agent locations for mtgc and magc, else `breakpoints`."""
    if spec.kind in _CONVEX:
        # Convex objectives kink only at agent locations, which are ascending
        # and whose repeats are identical floats, so merging drops them.
        return _merge_close(profile.locations)
    return breakpoints(profile)


def _select(
    profile: GroupedProfile, spec: ObjectiveSpec, pts: Sequence[float], columns: tuple[list[list[float]], ...]
) -> OptimalResult:
    """One optimum's search and selection, given the families at every kink `pts` as columns."""
    values = combine_along(spec, columns)
    candidates: list[tuple[float, float]]
    if spec.kind in _CONVEX:
        # The true minimum lies in one of the two intervals around the best kink.
        i0 = values.index(min(values))
        candidates = list(zip(pts, values))
        for lo in (i0 - 1, i0):
            hi = lo + 1
            if 0 <= lo and hi < len(pts):
                candidates.extend(
                    _crossing_candidates(spec, pts[lo], _row(columns, lo), pts[hi], _row(columns, hi))
                )
    else:
        # No crossing in an interval whose floor exceeds the best kink's tie
        # window can be a minimizer. A NaN floor (inf slack) is searched.
        best = min((v for v in values if not math.isinf(v)), default=math.inf)
        cut = best + _tie_tol(best)
        slack = _FLOOR_SLACK * _constituent_bound(profile)
        candidates = [(pts[0], values[0])]
        for k, floor in enumerate(_interval_floors(spec, columns, slack)):
            if not floor > cut:
                candidates.extend(
                    _crossing_candidates(spec, pts[k], _row(columns, k), pts[k + 1], _row(columns, k + 1))
                )
            candidates.append((pts[k + 1], values[k + 1]))

    finite = [(y, v) for y, v in candidates if not math.isinf(v)]
    if not finite:
        raise UnboundedObjectiveError(f"{spec.label} is +inf at every candidate location")
    vmin = min(v for _, v in finite)
    if math.isnan(vmin):
        # A NaN that comes first poisons min(), and no candidate ties with it.
        raise ObjectiveOverflowError(
            f"{spec.label} overflows the float range on this instance (a candidate reads inf - inf)"
        )
    tied = vmin + _tie_tol(vmin)
    minimizers = _merge_close(sorted(y for y, v in finite if v <= tied))
    location = minimizers[0]
    value = eval_point(profile, spec, location)
    if not math.isfinite(value) and math.isinf(_constituent_bound(profile)):
        # The minimizer's swept value is finite, and a direct sum there
        # overflows: no optimum can be told.
        raise ObjectiveOverflowError(
            f"{spec.label} overflows the float range on this instance (its value at {location!r} reads {value})"
        )
    return OptimalResult(location, value, tuple(minimizers))


def ratio(profile: GroupedProfile, mechanism: MechanismLike, spec: ObjectiveSpec) -> RatioReport:
    """Mechanism objective value over the exact optimum, with the zero-optimum convention."""
    optimal = optimize(profile, spec)
    return ratio_to(profile, as_mechanism_fn(mechanism)(profile), spec, optimal)


def ratio_to(
    profile: GroupedProfile, outcome: FacilityOutcome, spec: ObjectiveSpec, optimal: OptimalResult
) -> RatioReport:
    """`ratio` of a rule's `outcome` against `optimal`, an already computed `optimize(profile, spec)`.

    Lets a caller that scores several rules on several objectives apply each
    rule and compute each optimum once.
    """
    value = eval_outcome(profile, spec, outcome)
    if optimal.value == 0.0:
        rho = 1.0 if value == 0.0 else math.inf
    else:
        rho = value / optimal.value
    return RatioReport(mechanism_value=value, optimal=optimal, ratio=rho)
