"""Fairness objectives over grouped profiles.

Ten objectives in total: the two headline ones (mtgc, magc), the two combined
inter/intra-group measures (iif1, iif2), and a 2x3 family of contrast
objectives pairing a per-group statistic h in {total, average, max} with
either a max-min gap (form "a") or a max/min ratio (form "b").

Lotteries are scored as the expectation of the objective over the support,
not as the objective of expected costs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import add, truediv

from .model import FacilityOutcome, GroupedProfile

_KINDS = ("mtgc", "magc", "iif1", "iif2", "alt")
_FORMS = ("a", "b")
_HS = ("total", "average", "max")


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


def _assembler(spec: ObjectiveSpec, sizes: Sequence[int]) -> Callable[..., tuple[list[float], ...]]:
    """How `spec` builds its constituent families from per-group statistics at one point.

    The returned function takes (totals, spreads, farthest), each holding one
    value per group in group order. It reads only the statistics the
    objective combines, each at most once, so callers may pass lazy
    iterables for the rest.
    """
    kind = spec.kind
    if kind == "mtgc" or spec.h == "total":
        return lambda totals, spreads, farthest: (list(totals),)
    if spec.h == "max":
        return lambda totals, spreads, farthest: (list(farthest),)
    if kind == "iif1":
        return lambda totals, spreads, farthest: (list(map(truediv, totals, sizes)), list(spreads))
    if kind == "iif2":
        return lambda totals, spreads, farthest: (list(map(add, map(truediv, totals, sizes), spreads)),)
    return lambda totals, spreads, farthest: (list(map(truediv, totals, sizes)),)


def constituents(profile: GroupedProfile, spec: ObjectiveSpec, y: float) -> tuple[list[float], ...]:
    """Per-group values at y of each family of constituents the objective combines.

    Every constituent is piecewise linear in y. There is one family for most
    objectives and two for iif1, whose two maxima move independently. The
    exact optimizer interpolates these families between kinks, so `combine`
    of an interpolated family is the objective on that stretch.
    """
    groups = profile.group_locations
    at = repeat(y)
    build = _assembler(spec, profile.group_sizes)
    return build(map(_total, groups, at), map(_spread, groups, at), map(_farthest, groups, at))


def _sweep_group(
    locs: tuple[float, ...], ys: Sequence[float], reach: float, spreads: bool
) -> tuple[list[float], list[float]]:
    """A group's totals at each of the ascending points `ys`, and its spreads if asked.

    One pointer walks the members once: `k` members lie strictly left of y,
    and `left` sums their offsets from the first member. Offsets rather than
    raw locations make the total exactly 0.0 when every member sits at y, and
    keep its rounding relative to the group's extent. A spread uses the same
    pointer for the nearest member and is bit-identical to `_spread`.
    """
    first, last = locs[0], locs[-1]
    size = len(locs)
    whole = 0.0
    for x in locs:  # the same additions as `left`, so left == whole once k == size
        whole += x - first
    # Every running value is at most `whole` or size times `reach`, the
    # extent of the profile and the points. Past the float maximum the offset
    # sums overflow where the totals need not, so the group is summed directly.
    if math.isinf(whole) or math.isinf(size * reach):
        return [_total(locs, y) for y in ys], [_spread(locs, y) for y in ys] if spreads else []
    totals: list[float] = []
    spread_col: list[float] = []
    k = 0
    left = 0.0
    for y in ys:
        while k < size and locs[k] < y:
            left += locs[k] - first
            k += 1
        d = y - first
        totals.append((k * d - left) + ((whole - left) - (size - k) * d))
        if spreads:
            maximum = max(abs(d), abs(y - last))
            if y <= first:
                minimum = first - y
            elif y >= last:
                minimum = y - last
            else:
                minimum = min(locs[k] - y, y - locs[k - 1])
            spread_col.append(maximum - minimum)
    return totals, spread_col


def constituents_along(
    profile: GroupedProfile, spec: ObjectiveSpec, ys: Sequence[float]
) -> Iterator[tuple[list[float], ...]]:
    """`constituents` at each of the ascending points `ys`, in one pass per group.

    Costs O(n + len(ys)·m) in all instead of O(n) per point. The families
    come point by point, so a caller that needs only neighbouring pairs need
    not hold them all. Spreads and farthest-member distances are
    bit-identical to `constituents`'; totals and averages agree to rounding
    (they come from running offset sums, not from a direct sum at each point)
    and are exactly 0.0 for a group whose members all sit at the point.
    """
    if not ys:
        return iter(())
    groups = profile.group_locations
    totals = spreads = farthest = repeat(())
    if spec.h == "max":
        farthest = zip(*([_farthest(locs, y) for y in ys] for locs in groups))
    else:
        x1, xn = profile.span
        reach = max(xn, ys[-1]) - min(x1, ys[0])
        with_spreads = spec.kind in ("iif1", "iif2")
        swept = [_sweep_group(locs, ys, reach, with_spreads) for locs in groups]
        totals = zip(*[col for col, _ in swept])
        if with_spreads:
            spreads = zip(*[col for _, col in swept])
    return map(_assembler(spec, profile.group_sizes), totals, spreads, farthest)


def combine(spec: ObjectiveSpec, families: tuple[list[float], ...]) -> float:
    """Objective value from the constituent families `constituents` returns.

    Returns +inf only for alt form "b" when some group's statistic is 0 while
    another's is not; the 0/0 case evaluates to 1.
    """
    kind = spec.kind
    if kind == "iif1":
        return max(families[0]) + max(families[1])
    values = families[0]
    if kind != "alt":
        return max(values)
    hi, lo = max(values), min(values)
    if spec.form == "a":
        return hi - lo
    if lo <= 0.0:
        return 1.0 if hi <= 0.0 else math.inf
    return hi / lo


def eval_point(profile: GroupedProfile, spec: ObjectiveSpec, y: float) -> float:
    """Objective value at a deterministic facility point.

    Returns +inf only for alt form "b" when some group sits exactly at y while
    another does not; the 0/0 case (every group at y) evaluates to 1.
    """
    return combine(spec, constituents(profile, spec, y))


def eval_outcome(profile: GroupedProfile, spec: ObjectiveSpec, outcome: FacilityOutcome) -> float:
    """Expected objective value over a lottery's support."""
    return sum(p * eval_point(profile, spec, pt) for pt, p in outcome.support)
