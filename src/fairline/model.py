"""Core domain types: grouped agent profiles, facility outcomes, cost primitives.

A profile is an ordered collection of agents on the real line, each carrying a
group label in 1..m where the groups partition the agents. An outcome is either
a single facility point or a finite lottery over points; every cost in this
package is an expected distance to the facility.

All types are immutable and all functions are pure, so everything here is safe
to share across threads without coordination.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
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


@dataclass(frozen=True)
class Agent:
    """One participant: a location on the line plus a group label."""

    location: float
    group: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.location):
            raise InvalidLocationError(f"agent location must be finite, got {self.location!r}")
        if self.location == 0:
            # One zero: -0.0 reads as +0.0, so agents that compare equal are identical.
            object.__setattr__(self, "location", abs(self.location))


@dataclass(frozen=True)
class GroupedProfile:
    """Agents sorted ascending by (location, group), partitioned into groups 1..group_count.

    Colocated agents are ordered by group label, which makes every mechanism
    built on top of this type deterministic. Locations hold one zero: `Agent`
    reads -0.0 as 0.0, so agents with equal (location, group) are identical
    values and their order cannot be observed. The derived views
    (`locations`, `group_locations`, `group_sizes`, `group_medians`) are
    computed once, when the profile is made.
    """

    agents: tuple[Agent, ...]
    group_count: int
    locations: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # Member locations per group, each tuple sorted ascending.
    group_locations: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    group_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # Left median of every group's member locations.
    group_medians: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ProfileError("group_count must be at least 1")
        if not self.agents:
            raise ProfileError("a profile needs at least one agent")
        buckets: list[list[float]] = [[] for _ in range(self.group_count)]
        prev: tuple[float, int] | None = None
        for a in self.agents:
            if not 1 <= a.group <= self.group_count:
                raise ProfileError(f"group {a.group} outside 1..{self.group_count}")
            key = (a.location, a.group)
            if prev is not None and key < prev:
                raise ProfileError("agents must be sorted by (location, group)")
            prev = key
            buckets[a.group - 1].append(a.location)
        for j, bucket in enumerate(buckets, start=1):
            if not bucket:
                raise EmptyGroupError(j)
        group_locations = tuple(tuple(b) for b in buckets)
        _set_views(
            self,
            tuple(a.location for a in self.agents),
            group_locations,
            tuple(len(b) for b in buckets),
            tuple(_left_median(locs) for locs in group_locations),
        )

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def span(self) -> tuple[float, float]:
        """Leftmost and rightmost agent locations."""
        return self.locations[0], self.locations[-1]

    def members(self, group: int) -> tuple[float, ...]:
        if not 1 <= group <= self.group_count:
            raise ProfileError(f"group {group} outside 1..{self.group_count}")
        return self.group_locations[group - 1]

    def raw(self) -> list[tuple[float, int]]:
        """(location, group) pairs, in profile order."""
        return [(a.location, a.group) for a in self.agents]

    def with_location(self, index: int, location: float) -> "GroupedProfile":
        """New profile with agent `index` reporting `location` instead."""
        return self.with_reports((index,), location)

    def with_reports(self, indices: Iterable[int], location: float) -> "GroupedProfile":
        """New profile with every agent in `indices` reporting `location` instead.

        Equal to `build_profile` on the edited (location, group) pairs, views
        and signs of zero included; see `deviations`, whose path this calls
        once. Indices follow sequence indexing, negative ones included. Raises
        InvalidLocationError if `location` is not finite, even when `indices`
        is empty.
        """
        return self.deviations(indices)(location)

    def deviations(self, indices: Iterable[int]) -> Callable[[float], "GroupedProfile"]:
        """The deviation path of the agents in `indices`: report -> deviated profile.

        The deviators are taken out of the sorted views once, here; each call
        of the returned function splices one report back in instead of
        re-sorting and re-validating. Unchanged `Agent`s and the views of the
        groups no deviator belongs to are reused, and the deviators keep
        their groups, so every group stays non-empty. Each call returns what
        `with_reports(indices, report)` specifies and changes no state, so
        one path serves any number of reports, in any order. A report of
        -0.0 goes in as 0.0, as in every profile.
        """
        positions = range(self.n)
        movers = sorted(set(map(positions.__getitem__, indices)))
        # Agents with equal (location, group) are identical, so which of them
        # a deviator was does not matter: it is taken out of its group's
        # members at any entry equal to its location.
        rest, rest_locs = self.agents, self.locations
        taken = []
        for k, i in enumerate(movers):
            place = i - k
            taken.append((rest[place].group, rest[place].location))
            rest = rest[:place] + rest[place + 1 :]
            rest_locs = rest_locs[:place] + rest_locs[place + 1 :]
        taken.sort()
        # Per deviator group: (group, unchanged members, deviator count).
        moved: list[tuple[int, tuple[float, ...], int]] = []
        for g, x in taken:
            if moved and moved[-1][0] == g:
                _, members, count = moved.pop()
            else:
                members, count = self.group_locations[g - 1], 0
            spot = bisect_left(members, x)
            moved.append((g, members[:spot] + members[spot + 1 :], count + 1))
        group_count, group_locations, group_sizes, medians = (
            self.group_count, self.group_locations, self.group_sizes, self.group_medians
        )

        def deviated(location: float) -> GroupedProfile:
            # Adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is.
            report = float(location) + 0.0
            if not math.isfinite(report):
                raise InvalidLocationError(f"agent location must be finite, got {report!r}")
            lo = bisect_left(rest_locs, report)
            hi = bisect_right(rest_locs, report, lo)
            # Each group's deviators go in after the unchanged agents equal to
            # them and after the deviators of lower groups placed before them.
            agents, locs, views, meds = rest, rest_locs, group_locations, medians
            placed = 0
            for g, members, count in moved:
                spot = bisect_right(rest, g, lo, hi, key=_GROUP_OF) + placed
                agents = agents[:spot] + (Agent(report, g),) * count + agents[spot:]
                locs = locs[:spot] + (report,) * count + locs[spot:]
                placed += count
                spot = bisect_left(members, report)
                spliced = members[:spot] + (report,) * count + members[spot:]
                views = views[: g - 1] + (spliced,) + views[g:]
                meds = meds[: g - 1] + (_left_median(spliced),) + meds[g:]
            out = object.__new__(GroupedProfile)
            out.__dict__.update(agents=agents, group_count=group_count)
            _set_views(out, locs, views, group_sizes, meds)
            return out

        return deviated

    def with_group(self, index: int, group: int) -> "GroupedProfile":
        """New profile with agent `index` relabelled to `group`."""
        pairs = self.raw()
        pairs[index] = (pairs[index][0], int(group))
        return build_profile(pairs, self.group_count)


_GROUP_OF = attrgetter("group")


def _merge_close(sorted_points: Iterable[float]) -> list[float]:
    """The sorted points, each dropped when within MERGE_TOL of the last one kept."""
    out: list[float] = []
    for p in sorted_points:
        if not out or p - out[-1] > MERGE_TOL:
            out.append(p)
    return out


def _left_median(sorted_locs: tuple[float, ...]) -> float:
    return sorted_locs[(len(sorted_locs) + 1) // 2 - 1]


def _set_views(
    profile: GroupedProfile,
    locations: tuple[float, ...],
    group_locations: tuple[tuple[float, ...], ...],
    group_sizes: tuple[int, ...],
    group_medians: tuple[float, ...],
) -> None:
    # A frozen dataclass refuses `setattr`; its instance dict does not.
    profile.__dict__.update(
        locations=locations,
        group_locations=group_locations,
        group_sizes=group_sizes,
        group_medians=group_medians,
    )


def build_profile(raw: Iterable[tuple[float, int]], group_count: int) -> GroupedProfile:
    """Validate and sort (location, group) pairs into a GroupedProfile.

    Sorting is by location with ties broken by group; a -0.0 location is
    stored as 0.0, so equal (location, group) pairs are identical agents.
    Raises EmptyGroupError if some group in 1..group_count has no member and
    InvalidLocationError on non-finite locations.
    """
    agents = [Agent(float(loc), int(grp)) for loc, grp in raw]
    agents.sort(key=lambda a: (a.location, a.group))
    return GroupedProfile(tuple(agents), group_count)


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
        object.__setattr__(out, "support", ((pt, 1.0),))
        return out

    @classmethod
    def three_point(cls, left: float, mid: float, right: float) -> "FacilityOutcome":
        """Quarter mass on `left` and `right` and half on `mid`, for finite left < mid < right.

        Such points are distinct and the masses sum to exactly 1, so only the
        order and finiteness are checked.
        """
        if not (left < mid < right and math.isfinite(left) and math.isfinite(right)):
            raise OutcomeError(f"need finite left < mid < right, got {left!r}, {mid!r}, {right!r}")
        out = object.__new__(cls)
        object.__setattr__(out, "support", ((left, 0.25), (mid, 0.5), (right, 0.25)))
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


@dataclass(frozen=True)
class GroupCostSummary:
    """Total, average, maximum and minimum expected cost over one group's members."""

    group: int
    total: float
    average: float
    maximum: float
    minimum: float


def agent_cost(outcome: FacilityOutcome, location: float) -> float:
    """Expected distance from `location` to the facility under `outcome`."""
    support = outcome.support
    if len(support) == 1:
        pt, p = support[0]
        return p * abs(pt - location)
    return sum(p * abs(pt - location) for pt, p in support)


def group_summary(profile: GroupedProfile, group: int, outcome: FacilityOutcome) -> GroupCostSummary:
    """Cost summary of one group against an outcome, in expectation for lotteries."""
    costs = [agent_cost(outcome, x) for x in profile.members(group)]
    total = sum(costs)
    return GroupCostSummary(
        group=group,
        total=total,
        average=total / len(costs),
        maximum=max(costs),
        minimum=min(costs),
    )
