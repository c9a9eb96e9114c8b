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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

# Absolute tolerance for value comparisons throughout the package.
ABS_TOL = 1e-9
# Tighter tolerance reserved for probability mass checks.
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


@dataclass(frozen=True)
class GroupedProfile:
    """Agents sorted ascending by (location, group), partitioned into groups 1..group_count.

    Colocated agents are ordered by group label and then by input order, which
    makes every mechanism built on top of this type deterministic.
    """

    agents: tuple[Agent, ...]
    group_count: int

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ProfileError("group_count must be at least 1")
        if not self.agents:
            raise ProfileError("a profile needs at least one agent")
        seen: set[int] = set()
        prev: tuple[float, int] | None = None
        for a in self.agents:
            if not 1 <= a.group <= self.group_count:
                raise ProfileError(f"group {a.group} outside 1..{self.group_count}")
            key = (a.location, a.group)
            if prev is not None and key < prev:
                raise ProfileError("agents must be sorted by (location, group)")
            prev = key
            seen.add(a.group)
        for j in range(1, self.group_count + 1):
            if j not in seen:
                raise EmptyGroupError(j)

    @property
    def n(self) -> int:
        return len(self.agents)

    @cached_property
    def locations(self) -> tuple[float, ...]:
        return tuple(a.location for a in self.agents)

    @cached_property
    def group_locations(self) -> tuple[tuple[float, ...], ...]:
        """Member locations per group, each tuple sorted ascending."""
        buckets: list[list[float]] = [[] for _ in range(self.group_count)]
        for a in self.agents:
            buckets[a.group - 1].append(a.location)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(locs) for locs in self.group_locations)

    @cached_property
    def group_medians(self) -> tuple[float, ...]:
        """Left median of every group's member locations."""
        return tuple(locs[(len(locs) + 1) // 2 - 1] for locs in self.group_locations)

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
        pairs = self.raw()
        pairs[index] = (float(location), pairs[index][1])
        return build_profile(pairs, self.group_count)

    def with_group(self, index: int, group: int) -> "GroupedProfile":
        """New profile with agent `index` relabelled to `group`."""
        pairs = self.raw()
        pairs[index] = (pairs[index][0], int(group))
        return build_profile(pairs, self.group_count)


def build_profile(raw: Iterable[tuple[float, int]], group_count: int) -> GroupedProfile:
    """Validate and sort (location, group) pairs into a GroupedProfile.

    Sorting is by location with ties broken by (group, input order); the sort
    is stable so equal (location, group) pairs keep their input order.
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
        """Deterministic outcome at a single point."""
        return cls(((float(point), 1.0),))

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
    return sum(p * abs(pt - location) for pt, p in outcome.support)


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
