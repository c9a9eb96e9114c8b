"""Core domain types: grouped agent profiles, facility outcomes, cost primitives.

A profile is agents on the real line divided into groups 1..m; it is stored
as each group's sorted member locations. An outcome is either a single
facility point or a finite lottery over points; every cost in this package is
an expected distance to the facility.

All types are immutable and all functions are pure, so everything here is safe
to share across threads without coordination.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable

# Tolerance for probability mass checks.
PROB_TOL = 1e-12
# Points closer than this on the line count as one (kinks, candidates, minimizers).
MERGE_TOL = 1e-12


class ProfileError(ValueError):
    """A profile violates one of its structural invariants."""


class InvalidLocationError(ProfileError):
    """An agent location is NaN or infinite."""


class EmptyGroupError(ProfileError):
    """A declared group has no members."""

    def __init__(self, group: int) -> None:
        super().__init__(f"group {group} has no members")
        self.group = group


class OutcomeError(ValueError):
    """A facility outcome violates one of its invariants."""


def _location(value: float) -> float:
    """`value` as a finite float, with -0.0 read as 0.0, so that equal locations are identical."""
    try:
        # Adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is.
        location = float(value) + 0.0
    except OverflowError:
        raise InvalidLocationError("agent location must be finite, got a number too large for a float") from None
    if not math.isfinite(location):
        raise InvalidLocationError(f"agent location must be finite, got {location!r}")
    return location


@dataclass(frozen=True)
class GroupedProfile:
    """Agents on the line in groups 1..group_count, stored as each group's sorted members.

    `GroupedProfile(group_locations)` takes one ascending sequence of finite
    locations per group, none of them empty; -0.0 is stored as 0.0, so agents
    with equal (location, group) are identical values. The views every rule
    and objective reads (`locations`, `group_sizes`) are computed once, when
    the profile is made; `group_medians`, read only by the rules built on
    group medians, is read off the groups on each access. Agents are ordered
    by (location, group), as in `raw()`, which makes every mechanism built on
    top of this type deterministic.
    """

    # Member locations per group, each tuple sorted ascending.
    group_locations: tuple[tuple[float, ...], ...]
    locations: tuple[float, ...] = field(init=False, repr=False, compare=False)
    group_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        groups = tuple([tuple(map(_location, members)) for members in self.group_locations])
        if not groups:
            raise ProfileError("a profile needs at least one group")
        for j, members in enumerate(groups, start=1):
            if not members:
                raise EmptyGroupError(j)
            if any(b < a for a, b in zip(members, members[1:])):
                raise ProfileError(f"group {j}'s members must be sorted ascending")
        _set_sorted_views(self, groups)

    @property
    def group_count(self) -> int:
        return len(self.group_locations)

    @property
    def n(self) -> int:
        return len(self.locations)

    @property
    def group_medians(self) -> tuple[float, ...]:
        """Left median of every group's member locations."""
        # From a list, not `tuple(map(...))`: a tuple grown by resizing goes,
        # once freed, onto CPython's free list of its size, which then fills
        # to its cap over an audit (about 0.1 MiB more peak memory).
        return tuple([_left_median(members) for members in self.group_locations])

    @property
    def span(self) -> tuple[float, float]:
        """Leftmost and rightmost agent locations."""
        return self.locations[0], self.locations[-1]

    def raw(self) -> list[tuple[float, int]]:
        """(location, group) pairs, in profile order."""
        return sorted((x, g) for g, members in enumerate(self.group_locations, start=1) for x in members)

    def deviations(self, indices: Iterable[int]) -> Callable[[float], "GroupedProfile"]:
        """The deviation path of the agents in `indices`: report -> deviated profile.

        Each call returns the profile in which every agent in `indices`
        reports `report` instead, equal to `build_profile` on the edited
        (location, group) pairs, views and signs of zero included. Indices
        follow sequence indexing, negative ones included. The deviators are
        taken out of `locations` and out of their groups' members once,
        here; each call inserts copies of one report instead of re-sorting
        and re-validating. The views of the groups no deviator belongs to
        are reused, and the deviators keep their groups, so every group stays
        non-empty. A call changes no state, so one path serves any number of
        reports, in any order. A report of -0.0 goes in as 0.0, as in every
        profile. A call raises InvalidLocationError if `report` is not
        finite, even when `indices` is empty.

        The path also carries what it takes out, which the built-in rules'
        path readers (`MechanismId.path_reader`) read instead of a deviated
        profile: `path.rest`, the other agents' sorted locations;
        `path.size`, the number of deviators; and `path.moved`, mapping each
        deviator's group label to that group's other members, sorted, and
        its deviator count.
        """
        locs = self.locations
        movers = sorted(set(map(range(len(locs)).__getitem__, indices)))
        # Equal locations are identical floats, so a report goes in at any
        # entry equal to it, and a deviator comes out at any entry equal to
        # its location.
        groups, rest_locs = self.group_locations, locs
        # Per deviator group label: the group's other members and its deviator count.
        moved: dict[int, tuple[tuple[float, ...], int]] = {}
        for k, i in enumerate(movers):
            x = locs[i]
            # Agents at one location are ordered by group label, so the
            # deviator's rank among them picks its group.
            rank = i - bisect_left(locs, x)
            for g, members in enumerate(groups, start=1):
                here = bisect_right(members, x) - bisect_left(members, x)
                if rank < here:
                    break
                rank -= here
            members, count = moved.get(g, (groups[g - 1], 0))
            spot = bisect_left(members, x)
            moved[g] = (members[:spot] + members[spot + 1 :], count + 1)
            rest_locs = rest_locs[: i - k] + rest_locs[i - k + 1 :]
        # The stretches of `group_locations` before, between and after the
        # deviators' groups, which every deviated profile shares.
        order = sorted(moved)
        head = groups[: order[0] - 1] if order else groups
        ends = [g - 1 for g in order[1:]] + [len(groups)]
        # Per deviator group, in group order: other members, deviator count, the stretch after it.
        splices = [(*moved[g], groups[g:end]) for g, end in zip(order, ends)]
        group_sizes, size = self.group_sizes, len(movers)

        def deviated(location: float) -> GroupedProfile:
            report = _location(location)
            reports = (report,) * size
            spot = bisect_left(rest_locs, report)
            locs = rest_locs[:spot] + reports + rest_locs[spot:]
            views = head
            for members, count, after in splices:
                spot = bisect_left(members, report)
                # `reports` itself, unsliced, when every deviator is in this group.
                views += (members[:spot] + reports[:count] + members[spot:],) + after
            return _set_views(object.__new__(GroupedProfile), views, locs, group_sizes)

        deviated.rest, deviated.size, deviated.moved = rest_locs, size, moved
        return deviated


# Every objective is built from distances between agents and the facility,
# each at most 2·max|x| on a profile whose coordinates and facility lie in
# [-max|x|, max|x|]. Every total, offset sum, gap, crossing difference and tie
# window the package forms is then below 4·n·max|x|, so 16·n·max|x| at most
# the float maximum leaves a factor of 4 to spare and no sum overflows.
_IN_RANGE = sys.float_info.max / 16.0


def scaled_in_range(profile: GroupedProfile, y: float = 0.0) -> tuple[GroupedProfile, int]:
    """`profile` times 2^-k and k, for the least k >= 0 with 16·n·max(|x_1|, |x_n|, |y|) <= the float maximum.

    Rounding at that bound may give one more. k is 0, and `profile` comes
    back as it is, unless a coordinate (or the point `y`) lies within a
    factor of 16·n of the float maximum. Otherwise k is searched upward from
    1; |y| and every |x| are at most the float maximum, so k is at most
    about log2(16·n) + 1. Every objective is positively homogeneous, of
    degree 1 or, for alt form "b"'s ratio, 0, and scaling by a power of two
    is exact in floats away from subnormals, so work done on the scaled
    profile, at y times 2^-k, scaled back by 2^k, is the work done on
    `profile` without its overflow. A `y` at an infinity or NaN, which no
    power of two brings into range, raises OutcomeError, as a support point
    there does.
    """
    locs = profile.locations
    n = len(locs)
    # Comparisons rather than a max() call: `eval_point` and `eval_outcomes`
    # take this path at every point they evaluate.
    bound = _IN_RANGE / n
    if -bound <= locs[0] and locs[-1] <= bound and -bound <= y <= bound:
        return profile, 0
    if not math.isfinite(y):
        raise OutcomeError(f"support point must be finite, got {y!r}")
    top = max(-locs[0], locs[-1], abs(y))
    k = 1
    while n * math.ldexp(top, -k) > _IN_RANGE:
        k += 1
    return GroupedProfile(tuple(tuple(math.ldexp(x, -k) for x in g) for g in profile.group_locations)), k


def _merge_close(sorted_points: Iterable[float]) -> list[float]:
    """The sorted points, each dropped when within MERGE_TOL of the last one kept."""
    out: list[float] = []
    for p in sorted_points:
        if not out or p - out[-1] > MERGE_TOL:
            out.append(p)
    return out


def median_index(count: int) -> int:
    """1-based position of the left median, the ceil(count/2)-th, within a sorted multiset of `count` items."""
    if count < 1:
        raise ValueError("count must be positive")
    return (count + 1) // 2


def _left_median(sorted_locs: tuple[float, ...]) -> float:
    return sorted_locs[median_index(len(sorted_locs)) - 1]


def _set_views(
    profile: GroupedProfile,
    group_locations: tuple[tuple[float, ...], ...],
    locations: tuple[float, ...],
    group_sizes: tuple[int, ...],
) -> GroupedProfile:
    # A frozen dataclass refuses `setattr`; its instance dict does not. Every
    # deviated profile goes through here, and item stores are quicker than one
    # `update` with keywords, which builds a dict of its own first.
    views = profile.__dict__
    views["group_locations"] = group_locations
    views["locations"] = locations
    views["group_sizes"] = group_sizes
    return profile


def _set_sorted_views(profile: GroupedProfile, groups: tuple[tuple[float, ...], ...]) -> GroupedProfile:
    """Set every view of `profile` from `groups`: non-empty, sorted tuples of `_location` values."""
    locations = tuple(sorted(chain.from_iterable(groups)))
    # The m-sized tuples here and in `build_profile` and `__post_init__` are
    # built from lists, as `group_medians` is, to keep them off the free lists.
    return _set_views(profile, groups, locations, tuple([len(g) for g in groups]))


def build_profile(raw: Iterable[tuple[float, int]], group_count: int) -> GroupedProfile:
    """Validate (location, group) pairs and sort them into a GroupedProfile.

    A -0.0 location is stored as 0.0, so equal (location, group) pairs are
    identical agents. Raises EmptyGroupError if some group in
    1..group_count has no member, InvalidLocationError on a location that is
    not a finite float, and ProfileError on a group outside 1..group_count.
    """
    buckets: list[list[float]] = [[] for _ in range(group_count)]
    for loc, grp in raw:
        x, g = _location(loc), int(grp)
        if not 1 <= g <= group_count:
            raise ProfileError(f"group {g} outside 1..{group_count}")
        buckets[g - 1].append(x)
    groups = tuple([tuple(sorted(b)) for b in buckets])
    if not (groups and all(groups)):
        return GroupedProfile(groups)  # raises the constructor's error for no group or an empty one
    # The locations are validated and sorted: only the views are left to set.
    return _set_sorted_views(object.__new__(GroupedProfile), groups)


@dataclass(frozen=True)
class FacilityOutcome:
    """A facility point or a finite lottery over points.

    The support holds (point, probability) pairs with distinct points and
    probabilities in (0, 1] summing to one. A deterministic outcome is the
    single-point special case with probability 1.
    """

    support: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise OutcomeError("outcome support must be non-empty")
        total = 0.0
        points = set()
        for pt, p in self.support:
            if not math.isfinite(pt):
                raise OutcomeError(f"support point must be finite, got {pt!r}")
            if not 0.0 < p <= 1.0:
                raise OutcomeError(f"probability must lie in (0, 1], got {p!r}")
            if pt in points:
                raise OutcomeError(f"support points must be pairwise distinct, {pt!r} repeats")
            points.add(pt)
            total += p
        if abs(total - 1.0) > PROB_TOL:
            raise OutcomeError(f"probabilities must sum to 1, got {total!r}")

    @classmethod
    def at(cls, point: float) -> "FacilityOutcome":
        """Deterministic outcome at a single point.

        A single point with probability 1.0 can fail only the finiteness
        check, so that is the only one made here.
        """
        pt = float(point)
        if not math.isfinite(pt):
            raise OutcomeError(f"support point must be finite, got {pt!r}")
        out = object.__new__(cls)
        # The frozen dataclass refuses `setattr`; its instance dict does not,
        # and writing it is quicker than `object.__setattr__`.
        out.__dict__["support"] = ((pt, 1.0),)
        return out

    @classmethod
    def lottery(cls, pairs: Iterable[tuple[float, float]]) -> "FacilityOutcome":
        """Lottery from (point, probability) pairs, merging coincident points."""
        merged: dict[float, float] = {}
        for pt, p in pairs:
            if p == 0.0:
                continue
            key = float(pt)
            merged[key] = merged.get(key, 0.0) + p
        return cls(tuple(sorted(merged.items())))

    @property
    def is_deterministic(self) -> bool:
        return len(self.support) == 1

    @property
    def point(self) -> float:
        """The single support point of a deterministic outcome."""
        if not self.is_deterministic:
            raise OutcomeError("outcome is a lottery, not a single point")
        return self.support[0][0]


def agent_cost(outcome: FacilityOutcome, location: float) -> float:
    """Expected distance from `location` to the facility under `outcome`."""
    # A left fold from 0.0, which `sum()` is on Python 3.11 and before; from
    # 3.12 `sum()` compensates, and its last bit would depend on the interpreter.
    # On one point the fold gives p·|pt - location| itself, +0.0 included.
    cost = 0.0
    for pt, p in outcome.support:
        cost += p * abs(pt - location)
    return cost
