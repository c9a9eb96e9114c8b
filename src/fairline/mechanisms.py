"""Facility placement rules mapping a GroupedProfile to a FacilityOutcome.

Each built-in rule is registered once, as one row of `_RULES`: its tag, its
function, its path reader (what the audit reads off a deviation path instead
of applying the function to a deviated profile), whether it takes a
parameter and its known tight instance families.
Every even-sized median is the left median, i.e. the ceil(k/2)-th order
statistic. Randomized rules return their lottery exactly; nothing here ever
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from . import families
from .model import FacilityOutcome, GroupedProfile, _left_median, build_profile, median_index
from .objectives import _KINDS


def _three_point(left: float, right: float) -> FacilityOutcome:
    # Collapses to a single point when the endpoints coincide.
    if left == right:
        return FacilityOutcome.at(left)
    mid = (left + right) / 2.0
    if left < mid < right:  # sorted and distinct, so nothing for `lottery` to merge
        return FacilityOutcome.three_point(left, mid, right)
    if math.isinf(mid):  # the ends' sum overflowed; the sum of their halves cannot
        mid = left / 2.0 + right / 2.0
    # The midpoint may round onto an end point, which `lottery` merges.
    return FacilityOutcome.lottery(((left, 0.25), (right, 0.25), (mid, 0.5)))


def mdm(profile: GroupedProfile) -> FacilityOutcome:
    """Facility at the left median of all agent locations."""
    return FacilityOutcome.at(profile.locations[median_index(profile.n) - 1])


def ldm(profile: GroupedProfile) -> FacilityOutcome:
    """Facility at the leftmost agent."""
    return FacilityOutcome.at(profile.locations[0])


def _rank(profile: GroupedProfile, k: int) -> int:
    """k - 1, the index of the k-th smallest agent location; IndexError unless 1 <= k <= n."""
    if not 1 <= k <= profile.n:
        raise IndexError(f"k must lie in 1..{profile.n}, got {k}")
    return k - 1


def kldm(profile: GroupedProfile, k: int) -> FacilityOutcome:
    """Facility at the k-th smallest agent location, 1 <= k <= n."""
    return FacilityOutcome.at(profile.locations[_rank(profile, k)])


def mgdm(profile: GroupedProfile) -> FacilityOutcome:
    """Facility at the left median of the largest group, smallest index on ties."""
    sizes = profile.group_sizes
    return FacilityOutcome.at(_left_median(profile.group_locations[sizes.index(max(sizes))]))


def rm(profile: GroupedProfile) -> FacilityOutcome:
    """Quarter mass on each extreme agent, half on their midpoint."""
    return _three_point(*profile.span)


def nrm(profile: GroupedProfile) -> FacilityOutcome:
    """Same lottery as rm but over the extreme group medians instead of extreme agents."""
    medians = profile.group_medians
    return _three_point(min(medians), max(medians))


def median_of_group_medians(profile: GroupedProfile) -> FacilityOutcome:
    """Facility at the left median of the multiset of group medians."""
    return FacilityOutcome.at(sorted(profile.group_medians)[median_index(profile.group_count) - 1])


def _checked_group(profile: GroupedProfile, j: int) -> int:
    """j itself; IndexError unless 1 <= j <= group_count."""
    if not 1 <= j <= profile.group_count:
        raise IndexError(f"group must lie in 1..{profile.group_count}, got {j}")
    return j


def median_of_group(profile: GroupedProfile, j: int) -> FacilityOutcome:
    """Facility at the left median of group j, regardless of group sizes."""
    return FacilityOutcome.at(_left_median(profile.group_locations[_checked_group(profile, j) - 1]))


# Path readers. `MechanismId.path_reader(profile)` builds one for a rule on
# `profile`; `read(rest, size, moved, report, spot)` is the support of the
# rule's outcome on the deviated profile of a deviation path of `profile`
# (`GroupedProfile.deviations`, one deviator or more): `rest`, `size` and
# `moved` are the path's, `report` is the deviators' report as the path
# converts it, and `spot` is `bisect_left(rest, report)`, where the path puts
# the reports in. A deviator keeps its group, so every group's size is
# `profile`'s, and the q-th smallest deviated location is one index shift on
# `rest`; no profile is built.


def _kth_reader(q: int) -> Callable[..., tuple]:
    """Reader of the (q+1)-th smallest agent location."""

    def read(rest, size, moved, report, spot):
        return ((rest[q] if q < spot else report if q < spot + size else rest[q - size], 1.0),)

    return read


def _shifted(members: tuple[float, ...], count: int, report: float, q: int) -> float:
    """The (q+1)-th smallest of `members` with `count` copies of `report` put in."""
    if q < len(members) and members[q] < report:
        return members[q]
    if q >= count and members[q - count] >= report:
        return members[q - count]
    return report


def _group_reader(profile: GroupedProfile, g: int) -> Callable[..., tuple]:
    """Reader of group g's left median; fixed while no deviator is in group g."""
    members = profile.group_locations[g - 1]
    q = median_index(len(members)) - 1
    fixed = ((members[q], 1.0),)

    def read(rest, size, moved, report, spot):
        if g not in moved:
            return fixed
        others, count = moved[g]
        return ((_shifted(others, count, report, q), 1.0),)

    return read


def _medians_reader(profile: GroupedProfile, pick: Callable[[list[float]], tuple]) -> Callable[..., tuple]:
    """Reader of `pick` of the group medians, each deviator group's shifted as in `_group_reader`."""
    truthful = list(profile.group_medians)
    qs = [median_index(size) - 1 for size in profile.group_sizes]

    def read(rest, size, moved, report, spot):
        medians = truthful.copy()
        for g, (others, count) in moved.items():
            medians[g - 1] = _shifted(others, count, report, qs[g - 1])
        return pick(medians)

    return read


def _mdm_reader(profile: GroupedProfile) -> Callable[..., tuple]:
    return _kth_reader(median_index(profile.n) - 1)


def _kldm_reader(profile: GroupedProfile, k: int) -> Callable[..., tuple]:
    return _kth_reader(_rank(profile, k))


def _mgdm_reader(profile: GroupedProfile) -> Callable[..., tuple]:
    sizes = profile.group_sizes
    return _group_reader(profile, sizes.index(max(sizes)) + 1)


def _three_point_support(left: float, right: float) -> tuple:
    """`_three_point(left, right).support`, with no outcome built for distinct ends whose midpoint lies between."""
    mid = (left + right) / 2.0
    if left < mid < right:
        return ((left, 0.25), (mid, 0.5), (right, 0.25))
    return _three_point(left, right).support


def _rm_reader(profile: GroupedProfile) -> Callable[..., tuple]:
    def read(rest, size, moved, report, spot):
        return _three_point_support(rest[0] if spot else report, report if spot == len(rest) else rest[-1])

    return read


def _nrm_reader(profile: GroupedProfile) -> Callable[..., tuple]:
    return _medians_reader(profile, lambda medians: _three_point_support(min(medians), max(medians)))


def _mogm_reader(profile: GroupedProfile) -> Callable[..., tuple]:
    q = median_index(profile.group_count) - 1
    return _medians_reader(profile, lambda medians: ((sorted(medians)[q], 1.0),))


def _mog_reader(profile: GroupedProfile, j: int) -> Callable[..., tuple]:
    return _group_reader(profile, _checked_group(profile, j))


class _Rule(NamedTuple):
    fn: Callable[..., FacilityOutcome]
    # Builds the rule's path reader on a profile (and its parameter, if any).
    reader: Callable[..., Callable[..., tuple]]
    takes_param: bool
    # Objective kind -> a family tight for this rule, built from a target agent count (and its parameter, if any).
    tight: dict[str, Callable[..., GroupedProfile]]


def _group_median_family(n: int) -> GroupedProfile:
    return families.group_median_family(max(2, n // 2))


def _average_family(n: int) -> GroupedProfile:
    return families.tight_average_family(max(2, n // 2))


def _center_mass_family(n: int) -> GroupedProfile:
    return families.three_group_center_mass(max(3, n))


def _split_pair_family(n: int, k: int) -> GroupedProfile:
    # At least k agents, so that the rule's k-th agent exists.
    return families.balanced_split_pair(max(1, (n - 2) // 2, (k - 1) // 2))


def _fixed_group_family(n: int, j: int) -> GroupedProfile:
    # `fixed_group_choice(2, 4)` with group j split; other groups join the large one at 1 and never set the maximum.
    others = [g for g in range(1, max(2, j) + 1) if g != j]
    raw = [(x, j if g == 1 else others[0]) for x, g in families.fixed_group_choice(2, 4).raw()]
    return build_profile(raw + [(1.0, g) for g in others[1:]], max(2, j))


# Every built-in rule, keyed by tag.
_RULES: dict[str, _Rule] = {
    "mdm": _Rule(mdm, _mdm_reader, False, {"mtgc": _group_median_family, "magc": _average_family}),
    "ldm": _Rule(
        ldm,
        lambda profile: _kth_reader(0),
        False,
        dict.fromkeys(_KINDS, lambda n: families.single_group_two_clusters(max(2, n))),
    ),
    "kldm": _Rule(kldm, _kldm_reader, True, dict.fromkeys(("iif1", "iif2"), _split_pair_family)),
    "mgdm": _Rule(
        mgdm,
        _mgdm_reader,
        False,
        {"mtgc": lambda n: families.tight_largest_group_total(), "magc": _average_family},
    ),
    "rm": _Rule(
        rm,
        _rm_reader,
        False,
        {"mtgc": _center_mass_family, "magc": lambda n: families.single_group_center_mass(max(3, n))},
    ),
    "nrm": _Rule(nrm, _nrm_reader, False, {"mtgc": _center_mass_family, "magc": _average_family}),
    "mogm": _Rule(median_of_group_medians, _mogm_reader, False, {"mtgc": _group_median_family}),
    "mog": _Rule(median_of_group, _mog_reader, True, {"mtgc": _fixed_group_family}),
}

# Each rule's function name, with underscores or hyphens, also names it.
_ALIASES = {
    alias: tag for tag, rule in _RULES.items() for alias in (rule.fn.__name__, rule.fn.__name__.replace("_", "-"))
}


@dataclass(frozen=True)
class MechanismId:
    """A mechanism tag plus its parameter, if the rule takes one.

    `kldm` carries k (validated against n when applied); `mog` carries the
    group index j. All other tags take no parameter.
    """

    tag: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in _RULES:
            raise ValueError(f"unknown mechanism tag {self.tag!r}")
        if _RULES[self.tag].takes_param:
            if self.param is None or self.param < 1:
                raise ValueError(f"mechanism {self.tag!r} needs a positive parameter")
        elif self.param is not None:
            raise ValueError(f"mechanism {self.tag!r} takes no parameter")

    @property
    def label(self) -> str:
        return self.tag if self.param is None else f"{self.tag}:{self.param}"

    def apply(self, profile: GroupedProfile) -> FacilityOutcome:
        """The rule's outcome on `profile`; every call of a built-in rule goes through here."""
        fn = _RULES[self.tag].fn
        return fn(profile) if self.param is None else fn(profile, self.param)

    def path_reader(self, profile: GroupedProfile) -> Callable[..., tuple]:
        """The rule's reader of `profile`'s deviation paths, as the comment above `_kth_reader` gives it.

        Every reader is built here. Raises what `apply(profile)` raises for
        a parameter out of range.
        """
        reader = _RULES[self.tag].reader
        return reader(profile) if self.param is None else reader(profile, self.param)


MechanismLike = Union[MechanismId, Callable[[GroupedProfile], FacilityOutcome]]


def as_mechanism_fn(mechanism: MechanismLike) -> Callable[[GroupedProfile], FacilityOutcome]:
    """Normalize a MechanismId or a bare callable into a callable."""
    if isinstance(mechanism, MechanismId):
        return mechanism.apply
    return mechanism


def mechanism_label(mechanism: MechanismLike) -> str:
    if isinstance(mechanism, MechanismId):
        return mechanism.label
    return getattr(mechanism, "__name__", repr(mechanism))


def parse_mechanism(text: str) -> MechanismId:
    """Parse labels like 'mgdm', 'kldm:3' or 'mog:2', case-insensitively."""
    body = text.strip().lower()
    param: int | None = None
    if ":" in body:
        body, _, raw_param = body.partition(":")
        try:
            param = int(raw_param)
        except ValueError as exc:
            raise ValueError(f"bad mechanism parameter in {text!r}") from exc
    tag = _ALIASES.get(body, body)
    return MechanismId(tag, param)
