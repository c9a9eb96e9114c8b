"""Strategyproofness audits and mechanized lower-bound replays.

`sp_audit` checks each agent deviating alone and `group_sp_audit` each maximal
colocated set of two or more agents deviating jointly: each deviation once.
Both try a finite set of misreports, chosen per mechanism:

- Built-in rules (`MechanismId`) get their complete set, `threshold_candidates`:
  the other agents' locations (every group median among them), their
  reflections about the deviator, and one point beyond each end of the span. A
  generalized-median rule changes its output only when a report crosses
  another agent's location, and the expected cost of `rm`/`nrm` is affine
  between those points and their reflections, so the deviator's cost is
  affine between consecutive points of this set and its true location. The
  set holds every deviation these rules have.
- Black-box callables get `misreport_candidates`: the same thresholds plus
  `resolution` uniform points over the span widened by one span-width on
  each side.

Both sets depend only on the deviator's true location and the profile, so
one audit call computes each true location's candidates once, each paired
with the mechanisms it is tried on, and the deviator sets at that location
share them. Each deviator set gets one deviation path,
`GroupedProfile.deviations`: the deviators are taken out of the truthful
profile once, and the path keeps what is left. Built-in rules are applied
only to the truthful profile; at each of their candidates the audit converts
the report, finds where it goes among the other agents once, and each rule's
path reader (`MechanismId.path_reader`) reads its outcome off the path with
no profile built. Only at the candidates of black-box callables is the
report spliced into a deviated profile, shared among the callables and equal
to the one `build_profile` would give.

Near the float maximum, a reflection or a widened end past the float range
is dropped or clamped to it; a profile whose span width overflows keeps an
infinite end and is refused with InvalidLocationError.

Twins, deviator sets that move equal (location, group) pairs, are audited
once. Taking out equal agents leaves equal profiles, views and signs of zero
included, so the twins' deviated profiles are equal, and every mechanism,
taken to be a function of the profile alone, gives them equal outcomes and
costs. A later twin gets no deviation path and no mechanism call: it gets a
copy of each of the first twin's findings, with its own deviators, at its own
place in the list. Agents are ordered by (location, group), so individual
twins are adjacent; no two maximal colocated sets are twins.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .families import balanced_split_pair, singleton_pair
from .mechanisms import MechanismId, MechanismLike, as_mechanism_fn
from .model import MERGE_TOL, GroupedProfile, _location, _merge_close, agent_cost
from .objectives import ObjectiveSpec
from .oracle import ratio

# Strict-improvement threshold; suppresses floating-point phantom findings.
VIOLATION_TOL = 1e-9

# Replication cap for the intergroup/intragroup lower-bound construction.
_MAX_REPLICATION = 50


class ConstructionInapplicableError(ValueError):
    """The probed mechanism placed the facility outside the construction's case analysis."""


@dataclass(frozen=True)
class AuditFinding:
    """A witness misreport that strictly reduces the deviators' expected cost.

    `deviators` holds one index for an individual deviation or several for a
    colocated set; all deviators share `true_location`. The constructor, and
    so `dataclasses.replace`, raises ValueError unless `deviating_cost` is
    below `truthful_cost` by more than VIOLATION_TOL. The audit's own loop
    makes that test itself and builds its findings with `_unchecked`.
    """

    deviators: tuple[int, ...]
    true_location: float
    misreport: float
    truthful_cost: float
    deviating_cost: float

    def __post_init__(self) -> None:
        if not self.deviating_cost < self.truthful_cost - VIOLATION_TOL:
            raise ValueError("a finding must be a strict violation")

    @classmethod
    def _unchecked(
        cls,
        deviators: tuple[int, ...],
        true_location: float,
        misreport: float,
        truthful_cost: float,
        deviating_cost: float,
    ) -> "AuditFinding":
        """A finding built without the strictness check, for a caller that has just made it."""
        finding = object.__new__(cls)
        finding.__dict__.update(
            deviators=deviators,
            true_location=true_location,
            misreport=misreport,
            truthful_cost=truthful_cost,
            deviating_cost=deviating_cost,
        )
        return finding


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome of a lower-bound probe: a ratio witness, an SP violation, or neither."""

    kind: str
    profile: GroupedProfile | None = None
    ratio: float | None = None
    finding: AuditFinding | None = None

    @classmethod
    def witness(cls, profile: GroupedProfile, ratio_value: float) -> "ProbeVerdict":
        return cls("ratio_witness", profile=profile, ratio=ratio_value)

    @classmethod
    def violation(cls, finding: AuditFinding) -> "ProbeVerdict":
        return cls("sp_violation", finding=finding)

    @classmethod
    def inconclusive(cls) -> "ProbeVerdict":
        return cls("inconclusive")

    @property
    def is_witness(self) -> bool:
        return self.kind == "ratio_witness"

    @property
    def is_violation(self) -> bool:
        return self.kind == "sp_violation"

    @property
    def is_inconclusive(self) -> bool:
        return self.kind == "inconclusive"


def _thresholds(profile: GroupedProfile, agent: int) -> tuple[float, set[float], float, float]:
    """The true location, the reports where a built-in rule's output or cost can kink, and the widened span's ends.

    The reports are the agents' locations, which hold every group median,
    and their reflections about the true location. The true location is
    among them; `_candidates` drops it. The widened span is the agents' span
    with one span-width more on each side, given as its two ends. A
    reflection past the float range is dropped, as no finite report reaches
    it, and an end past it is clamped to the float maximum. Only a span
    whose width itself overflows keeps an infinite end, which the audit
    refuses: costs across that span overflow too. Where nothing overflows,
    the plain arithmetic stands. Raises IndexError for an agent outside
    0..n-1.
    """
    if not 0 <= agent < profile.n:
        raise IndexError(f"agent index {agent} outside 0..{profile.n - 1}")
    own = profile.locations[agent]
    points = set(profile.locations)
    points.update([2.0 * own - c for c in points])
    if math.inf in points or -math.inf in points:
        # 2·own - c overflowed, perhaps in 2·own alone. 2·(own - c/2) rounds
        # once, as it does, and is finite wherever the reflection is.
        points = set(profile.locations)
        points.update([r for c in points if math.isfinite(r := 2.0 * (own - 0.5 * c))])
    x1, xn = profile.span
    width = xn - x1
    lo, hi = x1 - width, xn + width
    if width < math.inf and (lo == -math.inf or hi == math.inf):
        top = math.nextafter(math.inf, 0.0)  # the float maximum
        lo, hi = max(lo, -top), min(hi, top)
    return own, points, lo, hi


def _candidates(points: set[float], own: float) -> list[float]:
    """The points, strictly ascending, none within MERGE_TOL of the last kept or of `own`.

    `_plan` relies on both candidate lists being strictly ascending.
    """
    # Drop the points at the true location first, so none of them absorbs a candidate.
    return _merge_close(sorted(p for p in points if abs(p - own) > MERGE_TOL))


def _plan(
    grid: list[float],
    complete: list[float],
    on_grid: tuple[bool, bool],
    on_complete: tuple[bool, bool],
    on_both: tuple[bool, bool],
) -> list[tuple[float, tuple[bool, bool]]]:
    """Every candidate of `grid` or `complete`, ascending, marked by the lists it is in.

    A candidate is marked `on_grid`, `on_complete` or `on_both`. Both lists
    must be strictly ascending, as `_candidates` returns them: the
    marks keep the grid's order, and a candidate only in `complete` goes in
    after it, so only then is a sort needed. The result equals sorting the
    union of the two lists as sets.
    """
    marks = dict.fromkeys(grid, on_grid)
    for cand in complete:
        marks[cand] = on_both if cand in marks else on_complete
    return sorted(marks.items()) if 0 < len(grid) < len(marks) else list(marks.items())


def threshold_candidates(profile: GroupedProfile, agent: int) -> list[float]:
    """Complete candidate false reports for one agent under every built-in rule, sorted.

    The thresholds of `misreport_candidates`, plus the two ends of its
    widened span and no grid: between consecutive points of this list and
    the true location, which it excludes, a built-in rule's cost to the
    deviator is affine.
    """
    own, points, lo, hi = _thresholds(profile, agent)
    points.update((lo, hi))
    return _candidates(points, own)


def misreport_candidates(profile: GroupedProfile, agent: int, resolution: int) -> list[float]:
    """Candidate false reports for a black-box mechanism, sorted, excluding the true location.

    Union of the other agents' locations (every group median among them),
    their reflections about the deviator's true location, and `resolution`
    uniform points over the span widened by one span-width on each side (its
    left end alone when `resolution` is 1).
    """
    own, points, lo, hi = _thresholds(profile, agent)
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if resolution == 1:
        points.add(lo)
    else:
        step = (hi - lo) / (resolution - 1)
        if step == math.inf and -math.inf < lo and hi < math.inf:
            # Finite ends more than the float maximum apart: step at half scale and double back.
            half = (0.5 * hi - 0.5 * lo) / (resolution - 1)
            points.update(min(2.0 * (0.5 * lo + i * half), hi) for i in range(resolution))
        else:
            points.update(lo + i * step for i in range(resolution))
    return _candidates(points, own)


def _colocated_sets(profile: GroupedProfile) -> list[tuple[int, ...]]:
    """Maximal sets of agents sharing a location, group labels disregarded."""
    return [tuple(agents) for _, agents in groupby(range(profile.n), key=profile.locations.__getitem__)]


def _audit_sets(
    mechanisms: Sequence[MechanismLike],
    profile: GroupedProfile,
    resolution: int,
    deviator_sets: list[tuple[int, ...]],
) -> list[list[AuditFinding]]:
    if resolution < 1:
        raise ValueError("resolution must be positive")
    fns = [as_mechanism_fn(m) for m in mechanisms]
    truthful = [fn(profile) for fn in fns]
    # Built-in rules read each deviation path; callables get the deviated profile.
    readers = [(k, m.path_reader(profile)) for k, m in enumerate(mechanisms) if isinstance(m, MechanismId)]
    callables = [(k, fns[k]) for k, m in enumerate(mechanisms) if not isinstance(m, MechanismId)]
    findings: list[list[AuditFinding]] = [[] for _ in fns]
    # Per true location: each candidate, marked (rules audited there, callables audited there).
    plans: dict[float, list[tuple[float, tuple[bool, bool]]]] = {}
    # Per (location, group) pairs moved: where that set's findings lie in each mechanism's list.
    done: dict[tuple[tuple[float, int], ...], list[tuple[int, int]]] = {}
    pairs, unchecked = profile.raw(), AuditFinding._unchecked
    for deviators in deviator_sets:
        key = tuple([pairs[i] for i in deviators])
        spans = done.get(key)
        if spans is not None:
            # A twin of an audited set: its findings, with these deviators.
            for found, (start, stop) in zip(findings, spans):
                found.extend(
                    [
                        unchecked(deviators, f.true_location, f.misreport, f.truthful_cost, f.deviating_cost)
                        for f in found[start:stop]
                    ]
                )
            continue
        starts = [len(found) for found in findings]
        true_loc = profile.locations[deviators[0]]
        plan = plans.get(true_loc)
        if plan is None:
            first = deviators[0]
            grid = misreport_candidates(profile, first, resolution) if callables else []
            complete = threshold_candidates(profile, first) if readers else []
            plan = plans[true_loc] = _plan(grid, complete, (False, True), (True, False), (True, True))
        t_costs = [agent_cost(out, true_loc) for out in truthful]
        limits = [t_cost - VIOLATION_TOL for t_cost in t_costs]
        deviate = profile.deviations(deviators)
        rest, size, moved = deviate.rest, deviate.size, deviate.moved
        # Each loop below folds costs as `agent_cost` does, inline: these are
        # the audit's innermost loops, and one loop over a list of both kinds
        # of outcome built per candidate measured slower. The `limits` test is
        # the finding constructor's check.
        for cand, (at_rules, at_callables) in plan:
            if at_rules:
                report = _location(cand)
                spot = bisect_left(rest, report)
                for k, read in readers:
                    d_cost = 0.0
                    for pt, p in read(rest, size, moved, report, spot):
                        d_cost += p * abs(pt - true_loc)
                    if d_cost < limits[k]:
                        findings[k].append(unchecked(deviators, true_loc, cand, t_costs[k], d_cost))
            if at_callables:
                deviated = deviate(cand)
                for k, fn in callables:
                    d_cost = 0.0
                    for pt, p in fn(deviated).support:
                        d_cost += p * abs(pt - true_loc)
                    if d_cost < limits[k]:
                        findings[k].append(unchecked(deviators, true_loc, cand, t_costs[k], d_cost))
        done[key] = [(start, len(found)) for start, found in zip(starts, findings)]
    return findings


def batch_sp_audit(
    mechanisms: Sequence[MechanismLike], profile: GroupedProfile, resolution: int
) -> list[list[AuditFinding]]:
    """Individual-deviation audit of several mechanisms over one profile."""
    singles = [(i,) for i in range(profile.n)]
    return _audit_sets(mechanisms, profile, resolution, singles)


def sp_audit(mechanism: MechanismLike, profile: GroupedProfile, resolution: int) -> list[AuditFinding]:
    """All strict single-agent violations found in the candidate set."""
    return batch_sp_audit([mechanism], profile, resolution)[0]


def batch_group_sp_audit(
    mechanisms: Sequence[MechanismLike], profile: GroupedProfile, resolution: int
) -> list[list[AuditFinding]]:
    """Joint-deviation audit of several mechanisms by colocated sets of two or more agents."""
    joint = [s for s in _colocated_sets(profile) if len(s) > 1]
    return _audit_sets(mechanisms, profile, resolution, joint)


def group_sp_audit(mechanism: MechanismLike, profile: GroupedProfile, resolution: int) -> list[AuditFinding]:
    """All strict joint violations by maximal colocated sets of two or more agents."""
    return batch_group_sp_audit([mechanism], profile, resolution)[0]


def _meets(ratio_value: float, bound: float, epsilon: float) -> bool:
    if math.isinf(bound):
        return math.isinf(ratio_value)
    return ratio_value >= bound - epsilon - 1e-12


def lower_bound_probe(
    mechanism: MechanismLike, spec: ObjectiveSpec, bound: float, epsilon: float
) -> ProbeVerdict:
    """Replay the two-profile lower-bound construction against one mechanism.

    Builds the base instance for the objective family (a singleton pair for
    mtgc/magc/alt, a replicated two-point instance for iif1/iif2), observes
    the mechanism's placement, derives the second instance from it, and
    returns a ratio witness when either instance meets `bound - epsilon`
    (bound may be +inf for the alt family, where a witness means an infinite
    ratio), an SP violation when the construction's misreport strictly helps,
    and Inconclusive otherwise.
    """
    fn = as_mechanism_fn(mechanism)
    if spec.kind in ("mtgc", "magc", "alt"):
        family = singleton_pair
    elif spec.kind in ("iif1", "iif2"):
        c = _MAX_REPLICATION if epsilon <= 0 else min(math.ceil(2.0 / epsilon), _MAX_REPLICATION)
        family = functools.partial(balanced_split_pair, c)
    else:
        raise ValueError(f"no lower-bound construction for {spec.label}")

    base = family(0.0, 1.0)
    base_report = ratio(base, fn, spec)
    if _meets(base_report.ratio, bound, epsilon):
        return ProbeVerdict.witness(base, base_report.ratio)

    base_outcome = fn(base)
    if not base_outcome.is_deterministic:
        return ProbeVerdict.inconclusive()
    p = base_outcome.point
    if p < -MERGE_TOL or p > 1.0 + MERGE_TOL:
        raise ConstructionInapplicableError(
            f"facility at {p} falls outside [0, 1]; no case of the construction applies"
        )

    # Mirror the construction when the facility lands left of center.
    derived, target = (family(0.0, p), 1.0) if p >= 0.5 else (family(p, 1.0), 0.0)
    derived_report = ratio(derived, fn, spec)
    if _meets(derived_report.ratio, bound, epsilon):
        return ProbeVerdict.witness(derived, derived_report.ratio)

    movers = tuple(i for i, x in enumerate(derived.locations) if x == p)
    if movers:
        truthful_cost = agent_cost(fn(derived), p)
        deviating_cost = agent_cost(base_outcome, p)
        if deviating_cost < truthful_cost - VIOLATION_TOL:
            return ProbeVerdict.violation(
                AuditFinding(movers, p, target, truthful_cost, deviating_cost)
            )
    return ProbeVerdict.inconclusive()
