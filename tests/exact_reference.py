"""Exact objective values in rational arithmetic: the tests' independent check of `fairline`'s floats.

`exact_value(group_locations, spec, y)` computes an objective at one
facility point in `fractions.Fraction`, straight from its definition. Every
float is a dyadic rational, so `Fraction` of a location or a point is exact,
and so is every sum, quotient, maximum and minimum taken here. The module
uses only the standard library and none of `fairline`'s code, so a value it
disagrees with beyond rounding is a fault of the package, not a copy of it.

The definitions, for a group g with members x_i and a point y:
- total(g) = sum |y - x_i|, average(g) = total(g) / |g|;
- farthest(g) = max |y - x_i|, spread(g) = farthest(g) - min |y - x_i|;
- mtgc = max total, magc = max average;
- iif1 = max average + max spread, iif2 = max (average + spread);
- alt-a-h = max h - min h and alt-b-h = max h / min h, for h in total,
  average and max (farthest), with 0/0 read as 1 and a positive value over
  0 as +inf.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction


def group_values(group_locations: Sequence[Sequence[float]], statistic: str, y: float) -> list[Fraction]:
    """Each group's `statistic` at y, exactly: "total", "average", "max" (farthest member) or "spread"."""
    at = Fraction(y)
    values = []
    for locs in group_locations:
        distances = [abs(at - Fraction(x)) for x in locs]
        if statistic == "total":
            values.append(sum(distances, Fraction(0)))
        elif statistic == "average":
            values.append(sum(distances, Fraction(0)) / len(distances))
        elif statistic == "max":
            values.append(max(distances))
        elif statistic == "spread":
            values.append(max(distances) - min(distances))
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
    return values


def exact_value(group_locations: Sequence[Sequence[float]], spec: str, y: float) -> Fraction | float:
    """The objective labelled `spec` ("mtgc", "iif2", "alt-b-max", ...) at y: a Fraction, or +inf for alt-b.

    `group_locations` holds each group's member locations.
    """
    if spec == "mtgc":
        return max(group_values(group_locations, "total", y))
    if spec == "magc":
        return max(group_values(group_locations, "average", y))
    if spec in ("iif1", "iif2"):
        averages = group_values(group_locations, "average", y)
        spreads = group_values(group_locations, "spread", y)
        if spec == "iif1":
            return max(averages) + max(spreads)
        return max(a + s for a, s in zip(averages, spreads))
    kind, form, h = spec.split("-")
    if kind != "alt" or form not in ("a", "b") or h not in ("total", "average", "max"):
        raise ValueError(f"unknown objective {spec!r}")
    values = group_values(group_locations, h, y)
    hi, lo = max(values), min(values)
    if form == "a":
        return hi - lo
    if lo == 0:
        return Fraction(1) if hi == 0 else float("inf")
    return hi / lo
