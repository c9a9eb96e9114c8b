"""The linear-size kink grid against the all-pairs midpoint grid.

`all_pairs_optimum` is a test-only reference: it evaluates the same
constituents and crossings as `optimize`, but on every same-group pairwise
midpoint. Each point it adds to `breakpoints` lies where no constituent
kinks, so both must find the same optimum.
"""

from __future__ import annotations

import math
import random

import pytest

from fairline import ALT_OBJECTIVES, IIF1, IIF2, build_profile, optimize
from fairline.objectives import combine, constituents, eval_point
from fairline.model import MERGE_TOL, _merge_close
from fairline.oracle import UnboundedObjectiveError

NON_CONVEX = (IIF1, IIF2) + ALT_OBJECTIVES
PROFILES = 10_000


def crossing_candidates(spec, a, fam_a, b, fam_b) -> list[tuple[float, float]]:
    """Objective values at interior crossings of constituent lines on [a, b], ascending.

    A reference for `oracle._crossings` on one interval: `fam_a` and `fam_b`
    are the families at a and b, one value per group, as `constituents`
    gives them, and each crossing is scored by `combine`.
    """
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


def all_pairs_optimum(profile, spec) -> tuple[float, float]:
    """Leftmost minimizer and value over the all-pairs grid and its crossings."""
    pts = set(profile.locations)
    for locs in profile.group_locations:
        pts.update((a + b) / 2.0 for i, a in enumerate(locs) for b in locs[i + 1 :])
    grid = _merge_close(sorted(pts))
    fams = [constituents(profile, spec, y) for y in grid]
    candidates = [(y, combine(spec, f)) for y, f in zip(grid, fams)]
    for i in range(len(grid) - 1):
        candidates.extend(crossing_candidates(spec, grid[i], fams[i], grid[i + 1], fams[i + 1]))
    finite = [(y, v) for y, v in candidates if not math.isinf(v)]
    if not finite:
        raise UnboundedObjectiveError(spec.label)
    vmin = min(v for _, v in finite)
    location = min(y for y, v in finite if v <= vmin + 1e-12 * max(1.0, abs(vmin)))
    return location, eval_point(profile, spec, location)


def _random_profile(rng: random.Random):
    n = rng.randint(1, 10)
    m = rng.randint(1, min(4, n))
    digits = rng.choice((1, 2, None))
    locs: list[float] = []
    for _ in range(n):
        if locs and rng.random() < 0.2:
            locs.append(rng.choice(locs))  # colocated with an earlier agent
        else:
            x = rng.uniform(-3.0, 3.0)
            locs.append(x if digits is None else round(x, digits))
    labels = list(range(1, m + 1)) + [rng.randint(1, m) for _ in range(n - m)]
    rng.shuffle(labels)
    return build_profile(list(zip(locs, labels)), m)


def test_optimize_matches_all_pairs_grid():
    rng = random.Random(20211)
    for k in range(PROFILES):
        profile = _random_profile(rng)
        spec = NON_CONVEX[k % len(NON_CONVEX)]
        try:
            ref_y, ref_v = all_pairs_optimum(profile, spec)
        except UnboundedObjectiveError:
            with pytest.raises(UnboundedObjectiveError):
                optimize(profile, spec)
            continue
        got = optimize(profile, spec)
        x1, xn = profile.span
        # A contrast objective subtracts group totals of size up to
        # n * max|x|, and which rounded crossing location cancels to an exact
        # zero is luck on either grid, so values are compared relative to
        # that scale as well as to themselves.
        scale = max(abs(got.value), abs(ref_v), profile.n * max(abs(x1), abs(xn)))
        context = (k, spec.label, profile.raw(), got, ref_y, ref_v)
        assert abs(got.value - ref_v) <= 1e-12 * scale, context
        assert abs(got.location - ref_y) <= 1e-9 * (xn - x1), context

