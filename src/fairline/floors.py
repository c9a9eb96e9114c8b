"""Lower bounds of an objective on stretches of the line, for the exact optimizer.

`oracle` searches the crossings of constituent lines only where they could
reach the optimum, and sweeps a large kink grid only in the blocks that
could hold it. Both cuts rest on a floor: a lower bound of the objective on
a stretch of the line, built from the constituents at the stretch's ends.
Between two adjacent kinks every constituent is a line, so it lies between
its two endpoint values (`_interval_floors`). On a block of kinks it moves
by at most its Lipschitz constant L per unit of y (`_slopes`), so it lies
within (v(a) + v(b) -/+ L·(b - a))/2, the bound of one-dimensional global
optimization (Piyavskii 1972; Shubert 1972; `_block_floors`). `_floors`
combines either kind of bound as the objective combines its constituents,
and widens it by a rounding slack (`_slack`).
"""

from __future__ import annotations

import math
import sys
from operator import add, sub

from .model import GroupedProfile
from .objectives import ObjectiveSpec

# A constituent line interpolated in floats, va + t·(vb − va) with t in
# (0, 1), lands within 1.5·eps·max(|va|, |vb|) of [min(va, vb), max(va, vb)].
# On the span a group's total is at most its size times the span and any
# other constituent at most twice the span, so 2·n·span bounds every rounded
# constituent. The interval floor widens its bounds by this factor times
# 2·n·span, which also covers the rounding of the widening itself. The
# block floor (`_block_floors`) subtracts the same slack, which there covers
# the rounding of (v(a) + v(b) -/+ L·w)/2, whose terms stay below 4·n·span,
# and the few units in the last place by which a swept kink value strays
# from the line it lies on; `tests/test_block_floors.py` checks the widened
# floor against every kink and crossing of the blocks of seeded profiles.
# The search runs on profiles that `scaled_in_range` leaves as they are,
# where 2·n·span and every constituent are finite.
_FLOOR_SLACK = 8.0 * sys.float_info.epsilon


def _floors(spec: ObjectiveSpec, maxima: list[list[float]], minimum: list[float], slack: float) -> list[float]:
    """Per stretch of the line, a lower bound of the objective there, from bounds of its constituents.

    `maxima` holds, per family, the largest of the groups' lower bounds of
    their constituent on each stretch, and `minimum`, read for alt only, the
    least of family 0's upper bounds. Widened by `slack` for rounding, each
    family's maximum on a stretch is at least its entry in `maxima`, and
    alt's minimum at most its entry in `minimum`. Every objective grows with
    its maxima and shrinks with alt's minimum, and float rounding keeps that
    order, so combining the bounds gives a floor that no rounded value the
    stretch holds goes below. Alt form "b" gets no floor (-inf) where the
    bound on its divisor is not positive.
    """
    highs = [[h - slack for h in high] for high in maxima]
    if spec.kind != "alt":
        return list(map(add, *highs)) if spec.kind == "iif1" else highs[0]
    lows = [x + slack for x in minimum]
    if spec.form == "a":
        return list(map(sub, highs[0], lows))
    return [high / low if low > 0.0 else -math.inf for high, low in zip(highs[0], lows)]


def _interval_floors(spec: ObjectiveSpec, columns: tuple[list[list[float]], ...], slack: float) -> list[float]:
    """Per interval between consecutive kinks, a lower bound of the objective at its crossings.

    `columns` holds the constituent families at the kinks as `assemble_along`
    returns them, one column per group. Between two kinks every constituent
    is a line, so inside the interval it lies between its two endpoint
    values, which `_floors` combines.
    """
    # Conditional expressions, not min() and max() calls: this runs once per
    # group and interval, and a builtin call costs several times as much.
    # Each group's smaller (larger) endpoint value s (t) is folded into the
    # running maximum (minimum) over the groups in the same comprehension.
    maxima = []
    for family in columns:
        # g: one group's constituent at every kink, in order.
        g = family[0]
        high = [a if a < b else b for a, b in zip(g, g[1:])]
        for g in family[1:]:
            high = [h if h > (s := a if a < b else b) else s for h, a, b in zip(high, g, g[1:])]
        maxima.append(high)
    minimum: list[float] = []
    if spec.kind == "alt":
        g = columns[0][0]
        minimum = [a if a > b else b for a, b in zip(g, g[1:])]
        for g in columns[0][1:]:
            minimum = [x if x < (t := a if a > b else b) else t for x, a, b in zip(minimum, g, g[1:])]
    return _floors(spec, maxima, minimum, slack)


def _block_floors(
    spec: ObjectiveSpec,
    columns: tuple[list[list[float]], ...],
    widths: list[float],
    slopes: tuple[list[float], ...],
    slack: float,
) -> list[float]:
    """Per block between consecutive coarse kinks, a lower bound of the objective at its kinks and crossings.

    `columns` holds the constituent families at the coarse kinks as
    `assemble_along` returns them, `widths` each block's length, and
    `slopes` how far each constituent moves at most per unit of y, in the
    families' shape. A constituent that moves by at most L per unit and
    reads v(a) and v(b) at a block's ends lies, on the whole block, within
    (v(a) + v(b) -/+ L·(b - a))/2, where the lines of slope L from both
    ends meet; `_floors` combines those bounds.
    """
    # Folded over the groups as in `_interval_floors`, and halved once after.
    maxima = []
    for family, ls in zip(columns, slopes):
        g, s = family[0], ls[0]
        high = [a + b - s * w for a, b, w in zip(g, g[1:], widths)]
        for g, s in zip(family[1:], ls[1:]):
            high = [h if h > (x := a + b - s * w) else x for h, a, b, w in zip(high, g, g[1:], widths)]
        maxima.append([h / 2.0 for h in high])
    minimum: list[float] = []
    if spec.kind == "alt":
        g, s = columns[0][0], slopes[0][0]
        minimum = [a + b + s * w for a, b, w in zip(g, g[1:], widths)]
        for g, s in zip(columns[0][1:], slopes[0][1:]):
            minimum = [x if x < (t := a + b + s * w) else t for x, a, b, w in zip(minimum, g, g[1:], widths)]
        minimum = [x / 2.0 for x in minimum]
    return _floors(spec, maxima, minimum, slack)


def _slopes(profile: GroupedProfile) -> tuple[list[float], ...]:
    """How far each per-group statistic moves at most per unit of y, in `stats_along`'s order, one entry per group.

    A total moves by at most one per member, an average and a
    farthest-member distance by at most one, and a spread, a farthest less
    a nearest distance, by at most two.
    """
    ones = [1.0] * profile.group_count
    return [float(size) for size in profile.group_sizes], ones, [2.0] * profile.group_count, ones


def _slack(profile: GroupedProfile) -> float:
    """How far a floor is widened for rounding: `_FLOOR_SLACK` times 2·n·span."""
    x1, xn = profile.span
    return _FLOOR_SLACK * (2.0 * profile.n * (xn - x1))
