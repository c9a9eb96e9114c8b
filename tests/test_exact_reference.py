"""`optimize`'s reported values against exact rational values (`tests/exact_reference.py`)."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest

from exact_reference import exact_value, group_values
from fairline import UnboundedObjectiveError, optimize
from test_swept_oracle import SPECS, _optimize_profiles

EPS = Fraction(sys.float_info.epsilon)

# Groups [0, 1, 4] and [3, 3] at y = 1: the first's distances are 1, 0, 3
# (total 4, average 4/3, farthest 3, spread 3), the second's 2, 2 (total 4,
# average 2, farthest 2, spread 0).
BY_HAND = {
    "mtgc": Fraction(4),
    "magc": Fraction(2),
    "iif1": Fraction(5),
    "iif2": Fraction(13, 3),
    "alt-a-total": Fraction(0),
    "alt-a-average": Fraction(2, 3),
    "alt-a-max": Fraction(1),
    "alt-b-total": Fraction(1),
    "alt-b-average": Fraction(3, 2),
    "alt-b-max": Fraction(3, 2),
}


def test_exact_values_by_hand():
    groups = ((0.0, 1.0, 4.0), (3.0, 3.0))
    assert {spec.label: exact_value(groups, spec.label, 1.0) for spec in SPECS} == BY_HAND
    for h in ("total", "average", "max"):
        assert exact_value(((1.0,), (1.0,)), f"alt-b-{h}", 1.0) == 1
        assert exact_value(((1.0,), (2.0,)), f"alt-b-{h}", 1.0) == math.inf
    # Every float is a dyadic rational, so nothing rounds: 0.1 + 0.2 is not 0.3 here.
    assert exact_value(((0.1,), (0.2,)), "mtgc", 0.0) == Fraction(0.2)
    assert group_values(((0.1, 0.2),), "total", 0.0) == [Fraction(0.1) + Fraction(0.2)]
    with pytest.raises(ValueError):
        exact_value(groups, "alt-c-max", 1.0)


def within_rounding(value: float, groups, label: str, y: float, bound: Fraction) -> bool:
    """Whether `value` lies within `bound` of the objective's exact value at y.

    Alt form "b" divides a numerator and a denominator that each lie within
    `bound` of the exact maximum and minimum, so its allowance is the range
    of those quotients, widened by the division's own rounding; where the
    denominator may read 0, any value from the least quotient up passes.
    """
    if not label.startswith("alt-b"):
        return abs(Fraction(value) - exact_value(groups, label, y)) <= bound
    values = group_values(groups, label.split("-")[2], y)
    hi, lo = max(values), min(values)
    if lo + bound == 0:
        return value == exact_value(groups, label, y)
    if value == math.inf:
        return lo <= bound
    least = (hi - bound) / (lo + bound) * (1 - EPS)
    if lo <= bound:
        return Fraction(value) >= least
    return least <= Fraction(value) <= (hi + bound) / (lo - bound) * (1 + EPS)


def test_optimum_values_lie_within_rounding_of_the_exact_values():
    # Every row `OPTIMIZE_DIGEST` pins: the value reported at the optimum's
    # location is within eps·2·n·span of the exact value there.
    checked = 0
    unbounded = []
    for index, profile in enumerate(_optimize_profiles()):
        groups = profile.group_locations
        x1, xn = profile.span
        bound = EPS * 2 * profile.n * (Fraction(xn) - Fraction(x1))
        for spec in SPECS:
            try:
                result = optimize(profile, spec)
            except UnboundedObjectiveError:
                unbounded.append(index)
                continue
            assert within_rounding(result.value, groups, spec.label, result.location, bound), (
                index,
                spec.label,
                result,
            )
            checked += 1
    assert checked == 29_975
    # ROADMAP item 1's defect (a): every row that raises lies in the block
    # scaled by 1e-13 (profiles 1020-2039), where a 1e-12 tolerance merges
    # the kinks. Its fix moves this count.
    assert len(unbounded) == 675
    assert all(1020 <= index < 2040 for index in unbounded)
