"""Fairness objectives over grouped profiles.

Ten objectives in total: the two headline ones (mtgc, magc), the two combined
inter/intra-group measures (iif1, iif2), and a 2x3 family of contrast
objectives pairing a per-group statistic h in {total, average, max} with
either a max-min gap (form "a") or a max/min ratio (form "b").

Lotteries are scored as the expectation of the objective over the support,
not as the objective of expected costs.

Each objective combines one or two families of per-group constituents. At
one point (`constituents`, `combine`, `eval_point`) a family holds one value
per group. Along many points (`assemble_along`, `combine_along`, the exact
optimizer's kink pass) it holds one column per group instead, with the
group's value at every point. Which constituents an objective combines
(`_assembler`) and how it combines them (`ObjectiveSpec._combiner`) are
written once and serve both forms, and the two agree bit for bit wherever
they are built from the same per-group statistics. At one point the
statistics come from direct sums (`_stats_at`), which `constituents`,
`eval_point`, `eval_outcome` and `eval_outcomes` all read; `eval_outcomes`
scores several objectives from one such pass per support point, each
bit-identical to its own `eval_outcome`. Along many points the
work comes in two steps: `stats_along` walks each group once for every
per-group statistic a set of objectives reads (one objective's, or several
that share the points), and `assemble_along` builds one objective's families
from that result.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import add, or_, sub, truediv
from typing import Any

from .model import FacilityOutcome, GroupedProfile, scaled_in_range

_KINDS = ("mtgc", "magc", "iif1", "iif2", "alt")
_FORMS = ("a", "b")
_HS = ("total", "average", "max")

# The per-group statistics an objective's constituents read, as bit flags.
_TOTALS, _AVERAGES, _SPREADS, _FARTHEST = 1, 2, 4, 8


def _ratio(hi: float, lo: float) -> float:
    """Alt form "b": hi / lo, with 0/0 read as 1 and a positive hi over 0 as +inf."""
    if lo <= 0.0:
        return 1.0 if hi <= 0.0 else math.inf
    return hi / lo


@dataclass(frozen=True)
class ObjectiveSpec:
    """Selector for one objective; `form` and `h` are used only by kind 'alt'."""

    kind: str
    form: str | None = None
    h: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "alt":
            if self.form not in _FORMS or self.h not in _HS:
                raise ValueError("alt objectives need form in {'a','b'} and h in {'total','average','max'}")
        elif self.form is not None or self.h is not None:
            raise ValueError(f"objective {self.kind!r} takes no form/h")

    @cached_property
    def _combiner(self) -> tuple[Callable[[float, float], float], int, Callable[..., float]] | None:
        """How the objective combines its families over the groups; None for the maximum of family 0.

        Otherwise (merge, f, pick): the value is merge(the maximum of family
        0, pick over family f), that is iif1's sum of two maxima and alt's
        gap or ratio between its maximum and minimum. `combine` and
        `combine_along` both read it, once per call.
        """
        if self.kind == "iif1":
            return add, 1, max
        if self.kind != "alt":
            return None
        return (sub if self.form == "a" else _ratio), 0, min

    @cached_property
    def _statistics(self) -> int:
        """The per-group statistics `_assembler` reads for this objective, as `_TOTALS`-style flags."""
        # `_assembler` of one group whose statistics are their own flags,
        # combined with `or_`, gives the flags of what it reads.
        flags = _assembler(self, or_)([_TOTALS], [_AVERAGES], [_SPREADS], [_FARTHEST])
        return reduce(or_, chain.from_iterable(flags))

    @property
    def label(self) -> str:
        if self.kind == "alt":
            return f"alt-{self.form}-{self.h}"
        return self.kind


MTGC = ObjectiveSpec("mtgc")
MAGC = ObjectiveSpec("magc")
IIF1 = ObjectiveSpec("iif1")
IIF2 = ObjectiveSpec("iif2")


def alt(form: str, h: str) -> ObjectiveSpec:
    return ObjectiveSpec("alt", form, h)


MAIN_OBJECTIVES = (MTGC, MAGC, IIF1, IIF2)
ALT_OBJECTIVES = tuple(alt(form, h) for form in _FORMS for h in _HS)


def parse_objective(text: str) -> ObjectiveSpec:
    """Parse labels like 'mtgc' or 'alt-b-average', case-insensitively."""
    body = text.strip().lower()
    if body in ("mtgc", "magc", "iif1", "iif2"):
        return ObjectiveSpec(body)
    if body.startswith("alt-"):
        parts = body.split("-")
        if len(parts) == 3:
            return alt(parts[1], parts[2])
    raise ValueError(f"unknown objective {text!r}")


def _total(locs: tuple[float, ...], y: float) -> float:
    # A plain loop: on groups of a few members, a generator's frame costs two
    # to three times the arithmetic.
    total = 0.0
    for x in locs:
        total += abs(y - x)
    return total


def _spread(locs: tuple[float, ...], y: float) -> float:
    """max_i |y - x_i| - min_i |y - x_i| for a sorted member tuple."""
    maximum = max(abs(y - locs[0]), abs(y - locs[-1]))
    if y <= locs[0]:
        minimum = locs[0] - y
    elif y >= locs[-1]:
        minimum = y - locs[-1]
    else:
        i = bisect_left(locs, y)
        minimum = min(locs[i] - y, y - locs[i - 1])
    return maximum - minimum


def _farthest(locs: tuple[float, ...], y: float) -> float:
    return max(abs(y - locs[0]), abs(y - locs[-1]))


def _assembler(spec: ObjectiveSpec, plus: Callable[[Any, Any], Any]) -> Callable[..., tuple[list[Any], ...]]:
    """Which constituent families `spec` combines, built from per-group statistics.

    The returned function takes (totals, averages, spreads, farthest), each
    a list holding one entry per group in group order, and returns each
    family as such a list, shared with its input where the family is one
    statistic. An entry is either a value at one point
    (`constituents`: `plus` is addition) or a column of values along many
    points (`assemble_along`: addition entry by entry). It reads only the
    statistics the objective combines (`ObjectiveSpec._statistics`), so
    callers may pass empty sequences for the rest.
    """
    kind = spec.kind
    if kind == "mtgc" or spec.h == "total":
        return lambda totals, averages, spreads, farthest: (totals,)
    if spec.h == "max":
        return lambda totals, averages, spreads, farthest: (farthest,)
    if kind == "iif1":
        return lambda totals, averages, spreads, farthest: (averages, spreads)
    if kind == "iif2":
        return lambda totals, averages, spreads, farthest: (list(map(plus, averages, spreads)),)
    return lambda totals, averages, spreads, farthest: (averages,)


def _stats_at(profile: GroupedProfile, need: int, y: float) -> tuple[Sequence[float], ...]:
    """The per-group statistics flagged in `need` at y, in `stats_along`'s order; empty for the rest.

    Each is summed or scanned directly over the group's members, and averages
    divide the totals by the group sizes.
    """
    groups = profile.group_locations
    at = repeat(y)
    totals: Sequence[float] = ()
    averages: Sequence[float] = ()
    spreads: Sequence[float] = ()
    farthest: Sequence[float] = ()
    if need & (_TOTALS | _AVERAGES):
        totals = list(map(_total, groups, at))
        if need & _AVERAGES:
            averages = list(map(truediv, totals, profile.group_sizes))
    if need & _SPREADS:
        spreads = list(map(_spread, groups, at))
    if need & _FARTHEST:
        farthest = list(map(_farthest, groups, at))
    return totals, averages, spreads, farthest


def _needs(specs: Iterable[ObjectiveSpec]) -> int:
    """The union of the per-group statistics the objectives of `specs` read."""
    need = 0
    for spec in specs:
        need |= spec._statistics
    return need


def constituents(profile: GroupedProfile, spec: ObjectiveSpec, y: float) -> tuple[list[float], ...]:
    """Per-group values at y of each family of constituents the objective combines.

    Every constituent is piecewise linear in y. There is one family for most
    objectives and two for iif1, whose two maxima move independently. The
    exact optimizer interpolates these families between kinks, so `combine`
    of an interpolated family is the objective on that stretch.
    """
    return _assembler(spec, add)(*_stats_at(profile, spec._statistics, y))


def _sweep_group(locs: tuple[float, ...], ys: Sequence[float], spreads: bool) -> tuple[list[float], list[float]]:
    """A group's totals at each of the ascending points `ys`, and its spreads if asked.

    One pointer walks the members once: `k` members lie strictly left of y,
    and `left` sums their offsets from the first member; the terms that
    depend only on them are updated when the pointer moves. Offsets rather than
    raw locations make the total exactly 0.0 when every member sits at y, and
    keep its rounding relative to the group's extent. A spread uses the same
    pointer for the nearest member. It is split into the cases y <= first,
    y >= last and interior, where the sign of every offset is known, so it
    needs no max, min or abs call; fl(a - b) = -fl(b - a) keeps each case
    bit-identical to `_spread`. Every running value stays in the float range
    on a profile that `model.scaled_in_range` leaves as it is.
    """
    first, last = locs[0], locs[-1]
    size = len(locs)
    whole = 0.0
    for x in locs:  # the same additions as `left`, so left == whole once k == size
        whole += x - first
    totals: list[float] = []
    spread_col: list[float] = []
    k = 0
    left = 0.0
    right = whole  # whole - left
    up = size  # size - k
    nxt = first  # locs[k], or inf once every member lies left of y
    for y in ys:
        if nxt < y:
            while nxt < y:
                left += nxt - first
                k += 1
                nxt = locs[k] if k < size else math.inf
            right = whole - left
            up = size - k
        d = y - first
        totals.append((k * d - left) + (right - up * d))
        if spreads:
            if y <= first:
                spread_col.append((last - y) - (first - y))
            elif y >= last:
                spread_col.append(d - (y - last))
            else:
                far = last - y
                above = nxt - y
                below = y - locs[k - 1]
                spread_col.append((far if far > d else d) - (below if below < above else above))
    return totals, spread_col


def _added(a: list[float], b: list[float]) -> list[float]:
    return list(map(add, a, b))


GroupStats = tuple[list[list[float]], list[list[float]], list[list[float]], list[list[float]]]


def stats_along(profile: GroupedProfile, ys: Sequence[float], specs: Iterable[ObjectiveSpec]) -> GroupStats:
    """Every per-group statistic any objective in `specs` reads, at each of the ascending points `ys`.

    Returns (totals, averages, spreads, farthest), each holding one column
    per group with the group's value at every point of `ys`, or an empty
    list when no objective in `specs` reads that statistic. One
    `_sweep_group` pass per group gives the totals, and the spreads with
    them when any objective is iif1 or iif2; averages divide the totals by
    the group sizes once, whichever objectives read them, and
    farthest-member distances (alt h="max") are taken point by point. One
    pass costs O(n + len(ys)·m) in all instead of O(n) per point. Spreads
    and farthest-member distances are bit-identical to `constituents`';
    totals and averages agree to rounding (they come from running offset
    sums, not from a direct sum at each point) and are exactly 0.0 for a
    group whose members all sit at the point. What one objective reads does
    not depend on what the others read, so `assemble_along` of the result is
    bit-identical whichever other objectives share it.
    """
    need = _needs(specs)
    groups = profile.group_locations
    totals: list[list[float]] = []
    averages: list[list[float]] = []
    spreads: list[list[float]] = []
    farthest: list[list[float]] = []
    if need & _FARTHEST:
        farthest = [[_farthest(locs, y) for y in ys] for locs in groups]
    if need & (_TOTALS | _AVERAGES | _SPREADS):
        swept = [_sweep_group(locs, ys, need & _SPREADS != 0) for locs in groups]
        if need & _TOTALS:
            totals = [col for col, _ in swept]
        if need & _AVERAGES:
            averages = [[t / size for t in col] for (col, _), size in zip(swept, profile.group_sizes)]
        if need & _SPREADS:
            spreads = [col for _, col in swept]
    return totals, averages, spreads, farthest


def assemble_along(spec: ObjectiveSpec, stats: GroupStats) -> tuple[list[list[float]], ...]:
    """`constituents` at each point of `stats_along`'s result, as one column per group.

    Returns the families `constituents` returns, but each family holds, per
    group, the column of that group's values at every point. `stats` must
    hold every statistic `spec` reads. The result shares its columns with
    `stats` and with other objectives' families, so callers must not modify
    it.
    """
    return _assembler(spec, _added)(*stats)


def combine(spec: ObjectiveSpec, families: tuple[list[float], ...]) -> float:
    """Objective value from the constituent families `constituents` returns.

    Returns +inf only for alt form "b" when some group's statistic is 0 while
    another's is not; the 0/0 case evaluates to 1.
    """
    hi = max(families[0])
    rule = spec._combiner
    if rule is None:
        return hi
    merge, f, pick = rule
    return merge(hi, pick(families[f]))


def _across(pick: Callable[..., float], columns: list[list[float]]) -> list[float]:
    """`pick` (max or min) over the groups at each point, folded one column at a time.

    Each step keeps what the builtin keeps: the first of equal values, and a
    NaN that comes first. A fold costs one comparison per group and point, a
    builtin call per point several.
    """
    out = columns[0]
    for column in columns[1:]:
        if pick is max:
            out = [s if s > h else h for h, s in zip(out, column)]
        else:
            out = [s if s < h else h for h, s in zip(out, column)]
    return out


def combine_along(spec: ObjectiveSpec, columns: tuple[list[list[float]], ...]) -> list[float]:
    """`combine` at every point of the families `assemble_along` returns, bit for bit."""
    hi = _across(max, columns[0])
    rule = spec._combiner
    if rule is None:
        return list(hi)
    merge, f, pick = rule
    return list(map(merge, hi, _across(pick, columns[f])))


def eval_point(profile: GroupedProfile, spec: ObjectiveSpec, y: float) -> float:
    """Objective value at a deterministic facility point.

    Returns +inf only for alt form "b" when some group sits exactly at y while
    another does not; the 0/0 case (every group at y) evaluates to 1. Near
    the float maximum it is taken on `model.scaled_in_range` of the profile
    and y, and reads inf only where the value itself exceeds the float
    maximum.
    """
    scaled, k = scaled_in_range(profile, y)
    if k:
        return unscaled(spec, eval_point(scaled, spec, math.ldexp(y, -k)), k)
    return combine(spec, constituents(profile, spec, y))


def unscaled(spec: ObjectiveSpec, value: float, k: int) -> float:
    """The objective's `value` on a profile scaled by 2^-k, read on the profile itself.

    Every objective but alt form "b" scales with the coordinates, so its
    value is multiplied by 2^k, inf where that exceeds the float maximum;
    alt form "b", a ratio, does not change.
    """
    return value if spec.form == "b" else value * 2.0**k


def eval_outcome(profile: GroupedProfile, spec: ObjectiveSpec, outcome: FacilityOutcome) -> float:
    """Expected objective value over a lottery's support, added left to right from 0.0."""
    # Not `sum()`, which compensates from Python 3.12 on (see `model.agent_cost`).
    value = 0.0
    for pt, p in outcome.support:
        value += p * eval_point(profile, spec, pt)
    return value


def eval_outcomes(profile: GroupedProfile, specs: Sequence[ObjectiveSpec], outcome: FacilityOutcome) -> list[float]:
    """`eval_outcome` of each objective in `specs`, in order, bit for bit.

    Each support point's per-group statistics are taken once, for every
    objective that reads them, and each objective combines its own families
    from them. The expectation adds the same products in the same order for
    each objective, whichever others share the pass. Each point is scaled
    as `eval_point` scales it.
    """
    need = _needs(specs)
    terms = []
    for pt, p in outcome.support:
        scaled, k = scaled_in_range(profile, pt)
        stats = _stats_at(scaled, need, math.ldexp(pt, -k))
        terms.append([p * unscaled(spec, combine(spec, _assembler(spec, add)(*stats)), k) for spec in specs])
    values = []
    for column in zip(*terms):
        value = 0.0
        for term in column:
            value += term
        values.append(value)
    return values
