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
`optima` of one objective. Each optimum evaluates the kinks first, in one
left-to-right sweep per group: `objectives.stats_along` walks each group's
sorted members with one pointer, so every kink costs O(m) instead of an
O(n) sum per group. On a large grid only the kinks of some blocks are
swept (the coarse pass, below).
mtgc and magc search the same kinks (the agent locations), and so do all the
other objectives (`breakpoints`), so the objectives given together share
one sweep per kink grid, which takes every statistic they read and no other.
The pass stays column-major: `objectives.assemble_along` builds each
objective's families from the sweep, one column per group with the group's
value at every kink; `objectives.combine_along` folds the columns over the
groups into the kink values, and `floors._interval_floors` reads the same
columns.
The crossings are scored as the kinks are, once per optimum (`_crossings`):
one pass finds those of every searched interval from the columns,
interpolates each column at all of them, and folds the results with one
`combine_along`. The kink values stay one list beside the kinks, which the
tie cut, the least value and the minimizers each read in one pass, and the
crossings are two lists, their locations and their values. The crossings,
at O(m^2) per interval, are searched only where they could reach the
optimum. For the convex mtgc and magc that is next to the kinks tied with
the best one: a convex function's minimizers form one
interval, which starts past the last kink left of them that lies above the
tie window. For the others, inside an interval every constituent lies
between its two endpoint values, so the objective there is at least an
"interval floor" built from them (`floors._interval_floors`). An interval
whose floor, less a rounding slack, lies above the best kink value's tie window
holds no crossing that could set the optimum or tie with it: the optimum is
at most the best kink value, and the tie window grows with the value it is
taken around. So skipping those intervals changes neither the optimum nor
the minimizers. On Gaussian profiles of about 130 agents in 4 groups, iif1
and iif2 search about 1% of the intervals. A call is O(n·m^2) at worst,
against O(n^2) for a direct sum at every kink.

The coarse pass extends the floor from two adjacent kinks to a block of
them, by the Lipschitz bound of one-dimensional global optimization
(Piyavskii 1972; Shubert 1972). On a grid of at least _BLOCK blocks of
_BLOCK kinks, the objectives sharing it first sweep only every _BLOCK-th
kink and the last, which cut the grid into blocks (`_sweep`). Every
constituent moves by at most L per unit of y (`floors._slopes`: the group
size for totals, 1 for averages and farthest distances, 2 for spreads, and
their sum for a family that adds two), so on a block [a, b] it lies within
(v(a) + v(b) -/+ L·(b - a))/2, and those bounds combine into a block floor
as the endpoint values do into an interval floor (`floors._block_floors`).
Each objective drops the blocks whose floor, less the same slack, lies
above the tie window of its least coarse value; the kinks of every block
some objective keeps are swept, and `_select` runs on them as before, with
crossings searched only between kinks adjacent on the grid. That changes no
result, bit for bit. The least coarse value is at least the least kink
value, and the tie window grows with the value it is taken around, so the
coarse window is at least the final one: a dropped kink can neither be the
best kink, tie with it nor move the cut. Every crossing inside a dropped
block is at least that block's floor. A kept kink comes from the same
pointer walk, and its value depends on that point alone. On the Gaussian
profiles above, iif1 and iif2 sweep about 12% of their kinks besides the
coarse ones, and mtgc and magc about 28%.

Which constituents an objective combines (`objectives._assembler`) and how
it combines them (`ObjectiveSpec._combiner`: iif1's sum, alt's gap, alt's
ratio with its 0/0 convention) are written once and serve both `eval_point`
at one point and the column pass at every kink, so the rule's side and the
optimum's side of every ratio share one copy of each formula, and the value
an optimum reports is `eval_point` at the minimizer. The tests check it
against an independent numpy grid search (`tests/grid_oracle.py`), which
deliberately shares none of it. `ratios_to` scores one rule's outcome on
several objectives from one statistics pass per support point
(`objectives.eval_outcomes`), each report bit-identical to `ratio_to`'s.

Outside the agent span every objective is nondecreasing moving away, so the
search is confined to [x_1, x_n]. For the ratio family (alt form "b") each
linear piece of the quotient is monotone between candidates, so the same
candidate set stays exact; a candidate where the objective is +inf is never a
minimizer, and when every candidate is, the objective is unbounded.

Near the float maximum, sums of distances overflow where the optimum need
not. Every objective is positively homogeneous (alt form "b", a ratio, of
degree 0), and scaling by a power of two is exact in floats, so `optima`
works on `model.scaled_in_range` of the profile, where no sum overflows, and
scales its results back; `breakpoints`, `eval_point` and the rule's side of
a ratio do the same. That is the one overflow rule: the search itself never
meets inf - inf, and an optimum whose value exceeds the float maximum raises
ObjectiveOverflowError. Scaling rounds subnormal coordinates, so the
scaled-back locations, minimizers and kinks are clamped into [x_1, x_n]
(`_into_span`), and the search stays confined to the span there too.
"""

from __future__ import annotations

import math
from collections.abc import Container, Sequence
from dataclasses import dataclass
from operator import add, sub

from .floors import _block_floors, _interval_floors, _slack, _slopes
from .mechanisms import MechanismLike, as_mechanism_fn
from .model import MERGE_TOL, FacilityOutcome, GroupedProfile, _merge_close, scaled_in_range
from .objectives import (
    GroupStats,
    ObjectiveSpec,
    _assembler,
    assemble_along,
    combine_along,
    eval_outcome,
    eval_outcomes,
    eval_point,
    stats_along,
    unscaled,
)

# Objectives that are convex in the facility location: max of convex totals.
_CONVEX = ("mtgc", "magc")

# Kinks per block of the coarse pass: a grid of at least _BLOCK blocks is
# first swept at every _BLOCK-th kink, and then only in the blocks that can
# hold the optimum (`_sweep`).
_BLOCK = 8


class UnboundedObjectiveError(ValueError):
    """Every candidate location evaluates to +inf (degenerate ratio instance)."""


class ObjectiveOverflowError(ValueError):
    """The objective's optimum value exceeds the float maximum.

    Raised only when the optimum, found on the profile scaled by a power of
    two (`scaled_in_range`), reads inf once scaled back.
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

    Near the float maximum the grid is taken on `scaled_in_range` of the
    profile, where no midpoint's sum overflows, and scaled back into the
    agent span (`_into_span`).
    """
    scaled, k = scaled_in_range(profile)
    # Sorted runs, which the sort merges: the locations, then each group's
    # consecutive midpoints and its extreme midpoint. `_merge_close` drops
    # the exact repeats.
    pts = list(scaled.locations)
    for locs in scaled.group_locations:
        pts += [(a + b) / 2.0 for a, b in zip(locs, locs[1:])]
        pts.append((locs[0] + locs[-1]) / 2.0)
    pts.sort()
    grid = _merge_close(pts)
    return tuple(_into_span(grid, k, profile.span) if k else grid)


def _crossings(
    spec: ObjectiveSpec,
    pts: Sequence[float],
    columns: tuple[list[list[float]], ...],
    searched: Sequence[int],
) -> tuple[list[float], list[float]]:
    """The interior crossings of constituent lines on the kink intervals `searched`: their locations and values.

    Interval k runs from kink k to kink k + 1 of `pts`, and `columns` holds
    the families at every kink, one column per group. Each crossing of two
    groups' lines in one family is found from the columns, kept once per
    interval, and listed by interval and then by position within it. The
    constituents are interpolated at every crossing, column by column, and
    folded into the values by one `combine_along`, bit for bit `combine`
    of the interpolated families.
    """
    found: set[tuple[int, float]] = set()
    for family in columns:
        for i, ci in enumerate(family):
            for cj in family[i + 1 :]:
                for k in searched:
                    da = ci[k] - cj[k]
                    db = ci[k + 1] - cj[k + 1]
                    if da == db:
                        continue
                    t = da / (da - db)
                    if MERGE_TOL < t < 1.0 - MERGE_TOL:
                        found.add((k, t))
    if not found:
        return [], []
    at = sorted(found)
    ys = [pts[k] + t * (pts[k + 1] - pts[k]) for k, t in at]
    interpolated = tuple([[c[k] + t * (c[k + 1] - c[k]) for k, t in at] for c in family] for family in columns)
    return ys, combine_along(spec, interpolated)


def _tie_tol(value: float) -> float:
    """How far above the optimum `value` a candidate still counts as tied with it.

    The tolerance tracks rounding noise only, so every listed minimizer
    re-evaluates to the optimum far inside the package-wide 1e-9 tolerance.
    `value + _tie_tol(value)` grows with `value`, which is what lets
    `_select` prune intervals against its best kink, and `_sweep` blocks
    against its least coarse value, before they know the optimum.
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
    depend on the other objectives (the coarse pass may sweep more blocks
    for them, which moves no result), so each result is bit-identical
    whichever specs share it.

    Each optimum evaluates the kinks (kept as per-group columns through
    `combine_along` and `floors._interval_floors`), then, in one pass over
    the same columns (`_crossings`), the crossings inside the intervals that
    can hold the optimum. On a grid of at least _BLOCK blocks
    of _BLOCK kinks, the coarse pass (`_sweep`) sweeps every _BLOCK-th kink
    first, once for all objectives sharing the grid, and then only the
    blocks whose Lipschitz floor reaches some objective's coarse tie window;
    the blocks it drops hold no kink or crossing that could set the optimum
    or tie with it, so every result is bit-identical to a sweep of every
    kink (see the module docstring). For the convex mtgc and magc those
    run from the interval left of the stretch of kinks tied with the best
    one (within `_tie_tol`) to the interval right of it, since a flat
    optimum may round least at any kink of the stretch. Otherwise they are
    every interval whose floor reaches the best kink value's tie window
    (see the module docstring).
    O(n·m^2) at worst for n agents in m groups. It is the leftmost
    minimizer, with its value re-evaluated by `eval_point`; `minimizers`
    lists every evaluated candidate tied with the optimum up to rounding
    noise (`_tie_tol`). Near the float maximum it works on
    `scaled_in_range` of the profile and scales every result back (see the
    module docstring). Raises the first error any objective raises:
    UnboundedObjectiveError when every candidate is +inf, and
    ObjectiveOverflowError when the optimum value exceeds the float maximum.
    """
    scaled, k = scaled_in_range(profile)
    sweeps: dict[bool, tuple[Sequence[float], GroupStats, Container[int]]] = {}
    results = []
    for spec in specs:
        convex = spec.kind in _CONVEX
        if convex not in sweeps:
            sharing = [s for s in specs if (s.kind in _CONVEX) == convex]
            sweeps[convex] = _sweep(scaled, _kinks(scaled, spec), sharing)
        pts, stats, gaps = sweeps[convex]
        result = _select(scaled, spec, pts, assemble_along(spec, stats), gaps)
        results.append(_scaled_back(spec, result, k, profile.span) if k else result)
    return tuple(results)


def _sweep(
    profile: GroupedProfile, pts: Sequence[float], specs: Sequence[ObjectiveSpec]
) -> tuple[Sequence[float], GroupStats, Container[int]]:
    """The kinks of the grid `pts` that the objectives `specs` need swept, their statistics, and the gaps between them.

    A gap k marks kinks k and k + 1 of the result that are not adjacent in
    `pts`. A grid of fewer than _BLOCK blocks of _BLOCK kinks is swept
    whole. On a larger one the coarse pass sweeps every _BLOCK-th kink and
    the last, which cut the grid into blocks; each objective then keeps the
    blocks whose floor (`_block_floors`) reaches the tie window of its least
    coarse value, and only the kinks of the blocks some objective keeps are
    swept (see the module docstring). The statistics come from
    `stats_along`, whose value at a kink depends on that kink alone.
    """
    if len(pts) < _BLOCK * _BLOCK:
        return pts, stats_along(profile, pts, specs), ()
    ends = list(range(0, len(pts) - 1, _BLOCK)) + [len(pts) - 1]
    coarse = [pts[i] for i in ends]
    stats = stats_along(profile, coarse, specs)
    widths = list(map(sub, coarse[1:], coarse))
    slopes = _slopes(profile)
    slack = _slack(profile)
    kept = [False] * len(widths)
    for spec in specs:
        columns = assemble_along(spec, stats)
        least = min(combine_along(spec, columns))
        cut = least + _tie_tol(least)
        # `_assembler` of the statistics' constants: a family that adds two
        # statistics moves by at most the sum of theirs.
        floors = _block_floors(spec, columns, widths, _assembler(spec, add)(*slopes), slack)
        kept = [keep or not floor > cut for keep, floor in zip(kept, floors)]
    kinks: list[float] = []
    gaps: set[int] = set()
    last = -1  # the index in `pts` of the last kink in `kinks`
    for j, keep in enumerate(kept):
        if keep:
            if ends[j] > last:  # the first block kept, or the one before it dropped
                if kinks:
                    gaps.add(len(kinks) - 1)
                kinks.append(pts[ends[j]])
            kinks += pts[ends[j] + 1 : ends[j + 1] + 1]
            last = ends[j + 1]
    return kinks, stats_along(profile, kinks, specs), gaps


def _kinks(profile: GroupedProfile, spec: ObjectiveSpec) -> Sequence[float]:
    """The points whose values `_select` needs: the agent locations for mtgc and magc, else `breakpoints`."""
    if spec.kind in _CONVEX:
        # Convex objectives kink only at agent locations, which are ascending
        # and whose repeats are identical floats, so merging drops them.
        return _merge_close(profile.locations)
    return breakpoints(profile)


def _select(
    profile: GroupedProfile,
    spec: ObjectiveSpec,
    pts: Sequence[float],
    columns: tuple[list[list[float]], ...],
    gaps: Container[int],
) -> OptimalResult:
    """One optimum's search and selection, given the families at the kinks `pts` as columns.

    `pts` and `gaps` are `_sweep`'s: no crossing is searched between kinks
    k and k + 1 for k in `gaps`, which are not adjacent on the grid, and a
    stretch of tied kinks ends there. `profile` lies in the float range
    (`scaled_in_range` leaves it as it is), so no candidate reads NaN, and
    only alt form "b"'s positive statistic over 0 reads +inf.
    """
    values = combine_along(spec, columns)
    best = min(values)
    cut = best + _tie_tol(best)
    searched: Sequence[int]
    if spec.kind in _CONVEX:
        # The minimizers lie between the kinks on either side of the stretch
        # of kinks tied with the best one: on a flat optimum the best kink
        # may be any of the stretch, and the leftmost minimizer left of it.
        lo = hi = values.index(best)
        while lo > 0 and lo - 1 not in gaps and values[lo - 1] <= cut:
            lo -= 1
        while hi < len(values) - 1 and hi not in gaps and values[hi + 1] <= cut:
            hi += 1
        searched = range(max(lo - 1, 0), min(hi + 1, len(pts) - 1))
    else:
        # No crossing in an interval whose floor exceeds the best kink's tie
        # window can be a minimizer.
        floors = _interval_floors(spec, columns, _slack(profile))
        searched = [k for k, floor in enumerate(floors) if not floor > cut]
    crossings, crossing_values = _crossings(spec, pts, columns, [k for k in searched if k not in gaps])
    vmin = min([best] + crossing_values)
    if vmin == math.inf:
        raise UnboundedObjectiveError(f"{spec.label} is +inf at every candidate location")
    tied = vmin + _tie_tol(vmin)
    ys = [y for y, v in zip(pts, values) if v <= tied]
    if crossings:
        ys += [y for y, v in zip(crossings, crossing_values) if v <= tied]
    minimizers = _merge_close(sorted(ys))
    location = minimizers[0]
    return OptimalResult(location, eval_point(profile, spec, location), tuple(minimizers))


def _scaled_back(spec: ObjectiveSpec, result: OptimalResult, k: int, span: tuple[float, float]) -> OptimalResult:
    """`result`, an optimum on the profile scaled by 2^-k, read on the profile itself, whose agent span is `span`.

    Its minimizers are scaled back into the span (`_into_span`), and the
    location is still the leftmost of them. Raises ObjectiveOverflowError
    when the optimum value exceeds the float maximum.
    """
    value = unscaled(spec, result.value, k)
    if math.isinf(value):
        raise ObjectiveOverflowError(
            f"{spec.label} overflows the float range on this instance (its optimum exceeds the float maximum)"
        )
    minimizers = _into_span(result.minimizers, k, span)
    return OptimalResult(minimizers[0], value, tuple(minimizers))


def _into_span(points: Sequence[float], k: int, span: tuple[float, float]) -> list[float]:
    """Ascending `points` on the profile scaled by 2^-k, times 2^k and clamped into the agent span `span`.

    Scaling by 2^-k rounds a subnormal coordinate (an agent at 5e-324 goes
    to 0), so a point may come back just outside [x_1, x_n]; the clamp puts
    it on the nearer end. Clamping keeps the order, and points it makes
    equal are merged.
    """
    x1, xn = span
    unit = 2.0**k
    return _merge_close([min(max(p * unit, x1), xn) for p in points])


def ratio(profile: GroupedProfile, mechanism: MechanismLike, spec: ObjectiveSpec) -> RatioReport:
    """Mechanism objective value over the exact optimum, with the zero-optimum convention."""
    optimal = optimize(profile, spec)
    return ratio_to(profile, as_mechanism_fn(mechanism)(profile), spec, optimal)


def ratio_to(
    profile: GroupedProfile, outcome: FacilityOutcome, spec: ObjectiveSpec, optimal: OptimalResult
) -> RatioReport:
    """`ratio` of a rule's `outcome` against `optimal`, an already computed `optimize(profile, spec)`.

    Lets a caller that scores several rules on several objectives apply each
    rule and compute each optimum once. Near the float maximum the rule is
    scored on `scaled_in_range` of the profile (`_report`).
    """
    scaled, k = scaled_in_range(profile)
    return _report(spec, eval_outcome(scaled, spec, _shrunk(outcome, k)), optimal, k)


def ratios_to(
    profile: GroupedProfile,
    outcome: FacilityOutcome,
    specs: Sequence[ObjectiveSpec],
    optima: Sequence[OptimalResult],
) -> tuple[RatioReport, ...]:
    """`ratio_to` of one rule's `outcome` on each objective of `specs` against its optimum in `optima`.

    The rule is scored on every objective from one statistics pass per
    support point (`eval_outcomes`), and each report is bit-identical to
    `ratio_to`'s.
    """
    scaled, k = scaled_in_range(profile)
    values = eval_outcomes(scaled, specs, _shrunk(outcome, k))
    return tuple(_report(spec, value, optimal, k) for spec, value, optimal in zip(specs, values, optima))


def _shrunk(outcome: FacilityOutcome, k: int) -> FacilityOutcome:
    """`outcome` with every point times 2^-k."""
    return FacilityOutcome.lottery((math.ldexp(pt, -k), p) for pt, p in outcome.support) if k else outcome


def _report(spec: ObjectiveSpec, value: float, optimal: OptimalResult, k: int) -> RatioReport:
    """The rule's `value` on the profile scaled by 2^-k against `optimal`, with the zero-optimum convention.

    The quotient is taken on the scaled values, so it stays finite where the
    rule's value on the profile itself, `mechanism_value`, exceeds the float
    maximum and reads inf.
    """
    best = unscaled(spec, optimal.value, -k)
    if best == 0.0:
        rho = 1.0 if value == 0.0 else math.inf
    else:
        rho = value / best
    return RatioReport(mechanism_value=unscaled(spec, value, k), optimal=optimal, ratio=rho)
