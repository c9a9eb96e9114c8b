"""Facility placement rules mapping a GroupedProfile to a FacilityOutcome.

Each built-in rule is registered once, as one row of `_RULES`: its tag, its
function, whether it takes a parameter and its known tight instance families.
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


def kldm(profile: GroupedProfile, k: int) -> FacilityOutcome:
    """Facility at the k-th smallest agent location, 1 <= k <= n."""
    if not 1 <= k <= profile.n:
        raise IndexError(f"k must lie in 1..{profile.n}, got {k}")
    return FacilityOutcome.at(profile.locations[k - 1])


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


def median_of_group(profile: GroupedProfile, j: int) -> FacilityOutcome:
    """Facility at the left median of group j, regardless of group sizes."""
    if not 1 <= j <= profile.group_count:
        raise IndexError(f"group must lie in 1..{profile.group_count}, got {j}")
    return FacilityOutcome.at(_left_median(profile.group_locations[j - 1]))


class _Rule(NamedTuple):
    fn: Callable[..., FacilityOutcome]
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
    "mdm": _Rule(mdm, False, {"mtgc": _group_median_family, "magc": _average_family}),
    "ldm": _Rule(ldm, False, dict.fromkeys(_KINDS, lambda n: families.single_group_two_clusters(max(2, n)))),
    "kldm": _Rule(kldm, True, dict.fromkeys(("iif1", "iif2"), _split_pair_family)),
    "mgdm": _Rule(mgdm, False, {"mtgc": lambda n: families.tight_largest_group_total(), "magc": _average_family}),
    "rm": _Rule(
        rm, False, {"mtgc": _center_mass_family, "magc": lambda n: families.single_group_center_mass(max(3, n))}
    ),
    "nrm": _Rule(nrm, False, {"mtgc": _center_mass_family, "magc": _average_family}),
    "mogm": _Rule(median_of_group_medians, False, {"mtgc": _group_median_family}),
    "mog": _Rule(median_of_group, True, {"mtgc": _fixed_group_family}),
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
