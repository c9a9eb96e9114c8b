"""Canonical instance families with known tight or growing worst-case ratios.

Each builder returns the profile for one parameter value; the docstrings state
the ratio the family realizes so search and fixture code can assert against
closed forms.
"""

from __future__ import annotations

from .model import GroupedProfile, build_profile

TWO_THIRDS = 2.0 / 3.0


def tight_largest_group_total() -> GroupedProfile:
    """Largest-group rule vs max total group cost: a split pair against a far pair.

    The rule places at 0 for a max total group cost of 2; placing at 2/3
    yields 2/3, so the ratio is exactly 3.
    """
    return build_profile([(0.0, 1), (TWO_THIRDS, 1), (1.0, 2), (1.0, 2)], 2)


def group_median_family(m: int) -> GroupedProfile:
    """m singleton groups at 0 plus m extra members of group 1 at 1.

    The all-agent median and the median of group medians both land at 0 with
    max total group cost m, while 1 achieves 1: ratio m.
    """
    if m < 2:
        raise ValueError("needs at least two groups")
    raw = [(0.0, j) for j in range(1, m + 1)] + [(1.0, 1)] * m
    return build_profile(raw, m)


def single_group_two_clusters(n: int) -> GroupedProfile:
    """One group: one agent at 0, n-1 agents at 1. Leftmost placement has ratio n-1."""
    if n < 2:
        raise ValueError("needs at least two agents")
    return build_profile([(0.0, 1)] + [(1.0, 1)] * (n - 1), 1)


def three_group_center_mass(n: int) -> GroupedProfile:
    """Singletons at 0 and 1 plus n-2 agents of a third group at 1/2.

    The three-point lotteries put half their mass at the extremes, paying
    (n-1)/4 in max total group cost against an optimum of 1/2: ratio (n-1)/2.
    """
    if n < 3:
        raise ValueError("needs at least three agents")
    raw = [(0.0, 1), (1.0, 2)] + [(0.5, 3)] * (n - 2)
    return build_profile(raw, 3)


def single_group_center_mass(n: int) -> GroupedProfile:
    """One group: agents at 0 and 1 plus n-2 at 1/2.

    The extreme-anchored lottery pays (n+2)/(4n) in average cost against the
    optimum 1/n at 1/2: ratio (n+2)/4.
    """
    if n < 3:
        raise ValueError("needs at least three agents")
    return build_profile([(0.0, 1), (1.0, 1)] + [(0.5, 1)] * (n - 2), 1)


def tight_average_family(k: int) -> GroupedProfile:
    """k group-1 agents at 0, k-1 at 2/3, one group-2 agent at 1.

    The all-agent median lands at 0 with max average group cost 1; the exact
    optimum sits at (4k-1)/(6k) with value (2k+1)/(6k), so the ratio
    6k/(2k+1) approaches 3 from below as k grows.
    """
    if k < 1:
        raise ValueError("k must be positive")
    raw = [(0.0, 1)] * k + [(TWO_THIRDS, 1)] * (k - 1) + [(1.0, 2)]
    return build_profile(raw, 2)


def singleton_pair(a: float = 0.0, b: float = 1.0) -> GroupedProfile:
    """Two singleton groups; the base instance of every two-profile lower bound."""
    return build_profile([(a, 1), (b, 2)], 2)


def balanced_split_pair(c: int, a: float = 0.0, b: float = 1.0) -> GroupedProfile:
    """Group 1: one agent at a and c at b; group 2: c at a and one at b.

    Placing at either cluster pays 4 - 2/(c+1) times the optimum under both
    combined fairness objectives. The base instance of the two-profile lower
    bound for those objectives.
    """
    if c < 1:
        raise ValueError("replication must be positive")
    raw = [(a, 1)] + [(b, 1)] * c + [(a, 2)] * c + [(b, 2)]
    return build_profile(raw, 2)


def fixed_group_choice(small: int, large: int) -> GroupedProfile:
    """Group 1 split between 0 and 2L/(2L+s); group 2 holds L agents at 1.

    Pinning the facility to group 1's median pays L in max total group cost
    against the optimum sL/(2L+s): ratio (2L+s)/s, at least 3 when L >= s.
    """
    if small < 2 or small % 2 != 0:
        raise ValueError("small group size must be even and at least 2")
    if large < 1:
        raise ValueError("large group size must be positive")
    b = 2.0 * large / (2.0 * large + small)
    raw = [(0.0, 1)] * (small // 2) + [(b, 1)] * (small // 2) + [(1.0, 2)] * large
    return build_profile(raw, 2)
