"""Seeded random instances and hill-climb search for worst-case ratios.

Search is accept-if-strictly-better with multiple restarts; the ratio
landscape has large attraction basins around the known tight families, so
restarts handle multimodality without annealing. Locations stay in [0, 1]
during search, which loses nothing because ratios are invariant under
translation and positive scaling.

Each restart scores a distinct profile once. Its current ratio never falls,
so a candidate scored earlier in the restart scored at most the current
ratio and would be rejected again; such a repeat is skipped after its random
draws, which leaves every report unchanged. Jitters of the current profile
are built on one deviation path per agent, kept until the profile changes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .mechanisms import MechanismLike, as_mechanism_fn
from .model import GroupedProfile, build_profile
from .objectives import ObjectiveSpec
from .oracle import ratio


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search budget; identical configs yield identical reports."""

    seed: int
    n_range: tuple[int, int]
    m_range: tuple[int, int]
    iterations: int = 1000
    perturbation_scale: float = 0.1
    restarts: int = 10

    def __post_init__(self) -> None:
        n_min, n_max = self.n_range
        m_min, m_max = self.m_range
        if not 1 <= n_min <= n_max:
            raise ValueError("n_range must satisfy 1 <= min <= max")
        if not 1 <= m_min <= m_max:
            raise ValueError("m_range must satisfy 1 <= min <= max")
        if n_min < m_min:
            raise ValueError("n_range.min must be at least m_range.min")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not (math.isfinite(self.perturbation_scale) and self.perturbation_scale > 0):
            raise ValueError(f"perturbation_scale must be finite and positive, got {self.perturbation_scale!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class WorstCaseReport:
    best_profile: GroupedProfile
    best_ratio: float
    trace: tuple[tuple[int, float], ...]


def _stream(seed: int, *lanes: int) -> random.Random:
    # Independent deterministic generator per (seed, lane...) tuple.
    state = seed
    for lane in lanes:
        state = state * 1_000_003 + lane + 1
    return random.Random(state)


def random_profile(config: SearchConfig, draw_index: int) -> GroupedProfile:
    """Deterministic function of (config.seed, draw_index).

    n and m are uniform over their ranges (m clamped to n), group sizes form
    a uniform composition with every group non-empty, locations are uniform
    on [0, 1].
    """
    rng = _stream(config.seed, 0, draw_index)
    n = rng.randint(*config.n_range)
    m = rng.randint(config.m_range[0], min(config.m_range[1], n))
    cuts = sorted(rng.sample(range(1, n), m - 1))
    bounds = [0, *cuts, n]
    raw: list[tuple[float, int]] = []
    for g in range(m):
        for _ in range(bounds[g + 1] - bounds[g]):
            raw.append((rng.random(), g + 1))
    return build_profile(raw, m)


def _perturb(
    profile: GroupedProfile,
    rng: random.Random,
    scale: float,
    paths: dict[int, Callable[[float], GroupedProfile]],
) -> GroupedProfile | None:
    """One local move: jitter a location (clamped to [0, 1]) or relabel a group.

    Returns None when a relabel would empty a group or a clamped jitter leaves
    the agent where it was; such moves are skipped, not repaired. A null
    jitter would only copy the profile, whose ratio cannot beat its own.
    `paths` holds deviation paths of `profile`'s agents by index; a jitter
    reuses the agent's path (`GroupedProfile.deviations`), adding it if
    missing. The caller empties it when the profile changes.
    """
    n = profile.n
    if profile.group_count > 1 and rng.random() < 0.25:
        i = rng.randrange(n)
        pairs = profile.raw()
        x, old = pairs[i]
        if profile.group_sizes[old - 1] <= 1:
            return None
        choices = [g for g in range(1, profile.group_count + 1) if g != old]
        pairs[i] = (x, rng.choice(choices))
        return build_profile(pairs, profile.group_count)
    i = rng.randrange(n)
    own = profile.locations[i]
    moved = min(1.0, max(0.0, own + rng.uniform(-scale, scale)))
    if moved == own:
        return None
    if i not in paths:
        paths[i] = profile.deviations((i,))
    return paths[i](moved)


def hill_climb(
    mechanism: MechanismLike,
    spec: ObjectiveSpec,
    config: SearchConfig,
    seed_profiles: Sequence[GroupedProfile] = (),
) -> WorstCaseReport:
    """Multi-restart local search maximizing the mechanism's approximation ratio.

    Restart i starts from seed_profiles[i] when provided, otherwise from
    random_profile(config, i). The trace records every strict improvement of
    the global best as (iteration, ratio) pairs.

    A candidate equal to a profile already scored in the same restart, its
    start included, is skipped after its draws and its step. Within a
    restart the current ratio never falls, so the repeat scored at most the
    current ratio and cannot be accepted. This holds because `ratio`, like
    the rule, is taken to be a function of the profile.
    """
    fn = as_mechanism_fn(mechanism)
    best_profile: GroupedProfile | None = None
    best_ratio = -1.0
    trace: list[tuple[int, float]] = []
    step = 0
    for r_idx in range(config.restarts):
        if r_idx < len(seed_profiles):
            current = seed_profiles[r_idx]
        else:
            current = random_profile(config, r_idx)
        rng = _stream(config.seed, 1, r_idx)
        current_ratio = ratio(current, fn, spec).ratio
        if current_ratio > best_ratio:
            best_profile, best_ratio = current, current_ratio
            trace.append((step, best_ratio))
        # Profiles are equal exactly when their group_locations are; only those are kept.
        scored = {current.group_locations}
        paths: dict[int, Callable[[float], GroupedProfile]] = {}
        for _ in range(config.iterations):
            step += 1
            candidate = _perturb(current, rng, config.perturbation_scale, paths)
            if candidate is None or candidate.group_locations in scored:
                continue
            scored.add(candidate.group_locations)
            candidate_ratio = ratio(candidate, fn, spec).ratio
            if candidate_ratio > current_ratio:
                current, current_ratio = candidate, candidate_ratio
                paths = {}
                if candidate_ratio > best_ratio:
                    best_profile, best_ratio = candidate, candidate_ratio
                    trace.append((step, best_ratio))
    assert best_profile is not None
    return WorstCaseReport(best_profile, best_ratio, tuple(trace))


def bound_conformance(
    mechanism: MechanismLike,
    spec: ObjectiveSpec,
    bound: float,
    config: SearchConfig,
    seed_profiles: Sequence[GroupedProfile] = (),
) -> tuple[bool, WorstCaseReport]:
    """True iff the search never exceeds `bound`; the report is returned either way.

    A False result is an escalation artifact, never to be dropped silently:
    it means either an implementation bug or a counterexample to the bound.
    """
    report = hill_climb(mechanism, spec, config, seed_profiles)
    return report.best_ratio <= bound + 1e-9, report
