"""Open defects of ROADMAP item 1, each pinned as a strict expected failure.

Each test asserts the right answer, which the package does not give yet. The
stage of item 1 that mends a defect makes its test pass; `strict=True` turns
that pass into a failure, so the same change has to take the marker off.
"""

from __future__ import annotations

import math

import pytest

from fairline import MTGC, alt, build_profile, optimize, parse_mechanism, ratio, sp_audit
from fairline.families import tight_largest_group_total

from conftest import mean_mechanism


def _scaled(profile, factor):
    return build_profile([(x * factor, g) for x, g in profile.raw()], profile.group_count)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, defect (a): absolute merge and tie tolerances; the ratio reads 1.0 at scale 1e-13",
)
def test_defect_a_tight_ratio_is_unchanged_by_scaling():
    profile, mgdm = tight_largest_group_total(), parse_mechanism("mgdm")
    unscaled = ratio(profile, mgdm, MTGC).ratio  # 2.9999999999999996
    assert math.isclose(ratio(_scaled(profile, 1e-13), mgdm, MTGC).ratio, unscaled, rel_tol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, defect (b): absolute audit tolerances; 97 findings at scale 1, none at 1e-10",
)
def test_defect_b_audit_findings_are_unchanged_by_scaling():
    profile = build_profile([(0, 1), (0.3, 1), (1, 2)], 2)
    found = len(sp_audit(mean_mechanism, profile, 101))  # 97
    assert len(sp_audit(mean_mechanism, _scaled(profile, 1e-10), 101)) == found


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, defect (b): absolute audit tolerances; rm gets 2 false findings at scale 1e300",
)
def test_defect_b_no_rounding_findings_at_large_scale():
    # None at scale 1. At 1e300 each finding's gain is about 2e-16 of the
    # cost, rounding that the absolute VIOLATION_TOL does not absorb.
    profile = build_profile([(1e300, 1), (1.7e300, 1), (1.2e300, 2)], 2)
    assert sp_audit(parse_mechanism("rm"), _scaled(profile, 1e-300), 101) == []
    assert sp_audit(parse_mechanism("rm"), profile, 101) == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, defect (d): a zero optimum is rounding luck; this one reads 3.552713678800501e-15",
)
def test_defect_d_zero_optimum_is_exactly_zero():
    raw = [(-2.79, 1), (-2.79, 1), (-2.79, 2), (-2.79, 2), (-2.32, 1)]
    raw += [(-0.78, 2), (-0.61, 1), (-0.48, 2), (1.33, 2), (1.55, 2)]
    profile = build_profile(raw, 2)  # eval_point is exactly 0.0 near 0.605
    assert optimize(profile, alt("a", "total")).value == 0.0
