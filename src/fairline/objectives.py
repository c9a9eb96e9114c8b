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
from dataclasses import dataclass

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
    return sum(abs(y - x) for x in locs)


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


def group_stat(locs: tuple[float, ...], y: float, h: str) -> float:
    """Per-group statistic used by the alt family."""
    if h == "total":
        return _total(locs, y)
    if h == "average":
        return _total(locs, y) / len(locs)
    return max(abs(y - locs[0]), abs(y - locs[-1]))


def constituents(profile: GroupedProfile, spec: ObjectiveSpec, y: float) -> tuple[list[float], ...]:
    """Per-group values at y of each family of constituents the objective combines.

    Every constituent is piecewise linear in y. There is one family for most
    objectives and two for iif1, whose two maxima move independently. The
    exact optimizer interpolates these families between kinks, so `combine`
    of an interpolated family is the objective on that stretch.
    """
    groups = profile.group_locations
    kind = spec.kind
    if kind == "mtgc":
        return ([_total(locs, y) for locs in groups],)
    if kind == "magc":
        return ([_total(locs, y) / len(locs) for locs in groups],)
    if kind == "iif1":
        return (
            [_total(locs, y) / len(locs) for locs in groups],
            [_spread(locs, y) for locs in groups],
        )
    if kind == "iif2":
        return ([_total(locs, y) / len(locs) + _spread(locs, y) for locs in groups],)
    return ([group_stat(locs, y, spec.h) for locs in groups],)


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
