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

Restarts are independent, so `hill_climb` runs them in forked lanes, one per
usable CPU, and merges their results in restart order: the report is the
same for any number of lanes. A black-box rule's side effects in lanes other
than the caller's are not seen by the caller.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import threading
from dataclasses import dataclass
from functools import partial
from typing import BinaryIO, Callable, Sequence

from .mechanisms import MechanismLike, as_mechanism_fn
from .model import FacilityOutcome, GroupedProfile, build_profile
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


Rule = Callable[[GroupedProfile], FacilityOutcome]
# One improvement of a restart's current profile: (global step, ratio, group_locations).
Improvement = tuple[int, float, tuple[tuple[float, ...], ...]]


def _start(config: SearchConfig, seed_profiles: Sequence[GroupedProfile], r: int) -> GroupedProfile:
    return seed_profiles[r] if r < len(seed_profiles) else random_profile(config, r)


def _climb(fn: Rule, spec: ObjectiveSpec, config: SearchConfig, start: GroupedProfile, r: int) -> list[Improvement]:
    """Restart `r` from `start`: every improvement of its current profile, the start's included, in order.

    Iteration k of the restart is global step r·iterations + k, and the start
    is step r·iterations. The restart draws only from `_stream(seed, 1, r)`,
    so what it returns depends on no other restart.
    """
    rng = _stream(config.seed, 1, r)
    first = r * config.iterations
    current = start
    current_ratio = ratio(current, fn, spec).ratio
    improvements = [(first, current_ratio, current.group_locations)]
    # Profiles are equal exactly when their group_locations are; only those are kept.
    scored = {current.group_locations}
    paths: dict[int, Callable[[float], GroupedProfile]] = {}
    for step in range(first + 1, first + config.iterations + 1):
        candidate = _perturb(current, rng, config.perturbation_scale, paths)
        if candidate is None or candidate.group_locations in scored:
            continue
        scored.add(candidate.group_locations)
        candidate_ratio = ratio(candidate, fn, spec).ratio
        if candidate_ratio > current_ratio:
            current, current_ratio = candidate, candidate_ratio
            paths = {}
            improvements.append((step, current_ratio, current.group_locations))
    return improvements


def _threads() -> int:
    """This process's OS threads, read from /proc where it exists, else its Python threads.

    Native threads, such as a BLAS pool started by importing numpy, show only
    in /proc.
    """
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _lanes(restarts: int) -> int:
    """How many processes share a search's restarts: one per usable CPU, at most one per restart.

    One where `os.fork` is missing, and one while this process runs another
    thread, since forking a threaded process is unsafe.
    """
    if not hasattr(os, "fork") or _threads() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(restarts, cpus)


def _run_lane(
    fn: Rule,
    spec: ObjectiveSpec,
    config: SearchConfig,
    seed_profiles: Sequence[GroupedProfile],
    lane: int,
    lanes: int,
) -> dict[int, list[Improvement]]:
    """The restarts r ≡ lane (mod lanes), in order, up to the first that raises."""
    done: dict[int, list[Improvement]] = {}
    try:
        for r in range(lane, config.restarts, lanes):
            done[r] = _climb(fn, spec, config, _start(config, seed_profiles, r), r)
    except Exception:
        pass  # the caller runs this restart again, in restart order, and raises there if it comes first
    return done


def _fork_lane(run: Callable[[], dict[int, list[Improvement]]]) -> tuple[int, BinaryIO]:
    """A child process that sends `run()`, marshalled, down a pipe: its pid and the pipe's read end.

    The child always ends in `os._exit`, 0 once it has written everything.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(run()))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


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

    Restarts are independent, so they run in `_lanes(restarts)` lanes:
    restart r in lane r mod L. Lane 0 is the caller; every other lane is a
    forked child that sends back its restarts' improvements. They are merged
    in restart order, so the report is the same for any number of lanes.
    A restart with no result (its rule raised, or its lane died) runs again
    in the caller, in restart order, so a raising rule raises what a
    one-lane search raises. A black-box rule's side effects in lanes other
    than 0 are not seen by the caller. No child outlives the call.
    """
    fn = as_mechanism_fn(mechanism)
    lanes = _lanes(config.restarts)
    children: list[tuple[int, BinaryIO]] = []
    payloads: list[bytes] = []
    statuses: list[int] = []
    try:
        for lane in range(1, lanes):
            try:
                children.append(_fork_lane(partial(_run_lane, fn, spec, config, seed_profiles, lane, lanes)))
            except OSError:
                break  # the lanes not started leave their restarts to the caller
        results = _run_lane(fn, spec, config, seed_profiles, 0, lanes)
        payloads = [pipe.read() for _, pipe in children]
    except BaseException:
        import signal  # here only, so that importing the package loads no more modules

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for payload, status in zip(payloads, statuses):
        if status == 0:
            results.update(marshal.loads(payload))

    best_locations: tuple[tuple[float, ...], ...] | None = None
    best_ratio = -1.0
    trace: list[tuple[int, float]] = []
    for r in range(config.restarts):
        if r not in results:
            results[r] = _climb(fn, spec, config, _start(config, seed_profiles, r), r)
        for step, value, group_locations in results[r]:
            if value > best_ratio:
                best_locations, best_ratio = group_locations, value
                trace.append((step, value))
    assert best_locations is not None
    return WorstCaseReport(GroupedProfile(best_locations), best_ratio, tuple(trace))


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
    Raises ValueError for a NaN bound, which no ratio can be checked against.
    """
    if math.isnan(bound):
        raise ValueError("bound must not be NaN")
    report = hill_climb(mechanism, spec, config, seed_profiles)
    return report.best_ratio <= bound + 1e-9, report
