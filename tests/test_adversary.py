import hashlib
import math
import random

import pytest

from fairline import (
    MAGC,
    MTGC,
    SearchConfig,
    WorstCaseReport,
    adversary,
    bound_conformance,
    build_profile,
    cli,
    hill_climb,
    parse_mechanism,
    parse_objective,
    random_profile,
    ratio,
)
from fairline.adversary import _perturb, _stream
from fairline.families import single_group_two_clusters, tight_largest_group_total

from conftest import mean_mechanism


def small_config(**overrides) -> SearchConfig:
    base = dict(seed=11, n_range=(2, 6), m_range=(1, 3), iterations=80, restarts=3)
    base.update(overrides)
    return SearchConfig(**base)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, n_range=(0, 4), m_range=(1, 2))
        with pytest.raises(ValueError):
            SearchConfig(seed=1, n_range=(4, 2), m_range=(1, 2))
        with pytest.raises(ValueError):
            SearchConfig(seed=1, n_range=(1, 4), m_range=(2, 3))
        with pytest.raises(ValueError):
            SearchConfig(seed=1, n_range=(2, 4), m_range=(1, 2), iterations=0)
        with pytest.raises(ValueError):
            SearchConfig(seed=1, n_range=(2, 4), m_range=(1, 2), restarts=0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_perturbation_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="perturbation_scale"):
            SearchConfig(seed=1, n_range=(2, 4), m_range=(1, 2), perturbation_scale=scale)


class TestRandomProfile:
    def test_deterministic_per_draw(self):
        cfg = small_config()
        assert random_profile(cfg, 3) == random_profile(cfg, 3)
        assert random_profile(cfg, 3) != random_profile(cfg, 4)

    def test_all_singletons_when_m_equals_n(self):
        cfg = SearchConfig(seed=5, n_range=(4, 4), m_range=(4, 4), iterations=1, restarts=1)
        p = random_profile(cfg, 0)
        assert p.group_sizes == (1, 1, 1, 1)

    def test_single_agent_has_ratio_one(self):
        cfg = SearchConfig(seed=5, n_range=(1, 1), m_range=(1, 1), iterations=1, restarts=1)
        p = random_profile(cfg, 0)
        for mech in ("mdm", "ldm", "rm", "nrm", "mgdm"):
            assert ratio(p, parse_mechanism(mech), MTGC).ratio == 1.0

    def test_locations_in_unit_interval(self):
        cfg = small_config()
        for i in range(20):
            p = random_profile(cfg, i)
            assert all(0.0 <= x <= 1.0 for x in p.locations)
            assert all(size >= 1 for size in p.group_sizes)


class TestHillClimb:
    def test_bit_identical_reports(self):
        cfg = small_config()
        a = hill_climb(parse_mechanism("mgdm"), MTGC, cfg)
        b = hill_climb(parse_mechanism("mgdm"), MTGC, cfg)
        assert a == b

    def test_trace_strictly_increases(self):
        cfg = small_config(iterations=200, restarts=4)
        report = hill_climb(parse_mechanism("mdm"), MAGC, cfg)
        values = [v for _, v in report.trace]
        assert all(b > a for a, b in zip(values, values[1:]))
        steps = [s for s, _ in report.trace]
        assert all(b > a for a, b in zip(steps, steps[1:]))

    def test_best_ratio_at_least_one(self):
        report = hill_climb(parse_mechanism("rm"), MTGC, small_config())
        assert report.best_ratio >= 1.0 - 1e-9

    def test_best_profile_reproduces_best_ratio(self):
        cfg = small_config()
        report = hill_climb(parse_mechanism("mgdm"), MTGC, cfg)
        recomputed = ratio(report.best_profile, parse_mechanism("mgdm"), MTGC).ratio
        assert recomputed == pytest.approx(report.best_ratio, abs=1e-12)

    def test_seeded_restart_dominates(self):
        cfg = small_config(iterations=30)
        seeded = hill_climb(
            parse_mechanism("mgdm"), MTGC, cfg, (tight_largest_group_total(),)
        )
        assert seeded.best_ratio >= 3.0 - 1e-9

    def test_two_cluster_seed_scales(self):
        cfg = SearchConfig(seed=3, n_range=(6, 6), m_range=(1, 1), iterations=40, restarts=1)
        report = hill_climb(parse_mechanism("ldm"), MTGC, cfg, (single_group_two_clusters(6),))
        assert report.best_ratio >= 5.0 - 1e-9


class TestBoundConformance:
    def test_largest_group_rule_stays_under_three(self):
        ok, report = bound_conformance(
            parse_mechanism("mgdm"), MTGC, 3.0, small_config(), (tight_largest_group_total(),)
        )
        assert ok
        assert report.best_ratio == pytest.approx(3.0, abs=1e-9)

    def test_false_when_bound_is_wrong(self):
        ok, report = bound_conformance(
            parse_mechanism("mgdm"), MTGC, 2.5, small_config(), (tight_largest_group_total(),)
        )
        assert not ok
        assert report.best_ratio > 2.5 + 1e-9


class TestPerturb:
    def test_null_jitter_is_skipped_after_the_same_draws(self):
        # One group, so every move is a jitter; at 0 and 1 about half of them clamp to a no-op.
        profile = build_profile([(0.0, 1), (1.0, 1)], 1)
        rng, replay = random.Random(3), random.Random(3)
        skipped = 0
        for _ in range(200):
            candidate = _perturb(profile, rng, 0.1, {})
            i = replay.randrange(profile.n)
            own = profile.locations[i]
            moved = min(1.0, max(0.0, own + replay.uniform(-0.1, 0.1)))
            if moved == own:
                assert candidate is None
                skipped += 1
            else:
                assert candidate == profile.deviations((i,))(moved)
        assert 0 < skipped < 200
        assert rng.random() == replay.random()

    def test_cached_paths_build_what_fresh_paths_build(self):
        # One group, so every move is a jitter; the cache is shared by every call.
        profile = build_profile([(0.3, 1), (0.6, 1), (0.6, 1), (0.0, 1), (1.0, 1)], 1)
        rng, replay, plain = random.Random(5), random.Random(5), random.Random(5)
        paths = {}
        for _ in range(200):
            candidate = _perturb(profile, rng, 0.15, paths)
            i = replay.randrange(profile.n)
            own = profile.locations[i]
            moved = min(1.0, max(0.0, own + replay.uniform(-0.15, 0.15)))
            assert candidate == _perturb(profile, plain, 0.15, {})
            if moved == own:
                assert candidate is None
            else:
                assert candidate == profile.deviations((i,))(moved)
        assert sorted(paths) == list(range(profile.n))
        assert rng.random() == replay.random() == plain.random()


# Search reports of the six proven (rule, objective) pairs, seeded at their
# tight families, under the `fairline search` defaults with m up to 4.
PROVEN = {
    ("mgdm", "mtgc"): 3.0,
    ("mdm", "magc"): 3.0,
    ("mgdm", "magc"): 3.0,
    ("nrm", "magc"): 2.0,
    ("kldm:1", "iif1"): 4.0,
    ("kldm:1", "iif2"): 4.0,
}
REPORTS_DIGEST = "30314327089ceee25c908233a0014e62bf84c468545ce626fe06536ddb71bfba"


def test_conformance_reports_are_pinned():
    digest = hashlib.sha256()
    for (rule, objective), bound in PROVEN.items():
        mechanism, spec = parse_mechanism(rule), parse_objective(objective)
        family = cli.tight_family_profile(mechanism, spec, 8)
        for seed in range(4):
            config = SearchConfig(
                seed=seed, n_range=(2, 8), m_range=(1, 4), restarts=6, iterations=300, perturbation_scale=0.15
            )
            ok, report = bound_conformance(mechanism, spec, bound, config, (family,))
            best = report.best_profile
            digest.update(repr((ok, report.best_ratio, best.raw(), best.group_count, report.trace)).encode())
    assert digest.hexdigest() == REPORTS_DIGEST


def reference_climb(mechanism, spec, config, seed_profiles=()):
    """`hill_climb` without its shortcuts: every candidate is built with a
    fresh deviation path or a `build_profile` of the relabelled pairs, and
    scored.

    Returns the report and, per restart, the profiles scored in order.
    """
    best_profile, best_ratio, trace, step = None, -1.0, [], 0
    scored_per_restart = []
    for r_idx in range(config.restarts):
        current = seed_profiles[r_idx] if r_idx < len(seed_profiles) else random_profile(config, r_idx)
        rng = _stream(config.seed, 1, r_idx)
        scored = [current]
        current_ratio = ratio(current, mechanism, spec).ratio
        if current_ratio > best_ratio:
            best_profile, best_ratio = current, current_ratio
            trace.append((step, best_ratio))
        for _ in range(config.iterations):
            step += 1
            # The draws of `_perturb`, in its order.
            pairs = current.raw()
            if current.group_count > 1 and rng.random() < 0.25:
                i = rng.randrange(current.n)
                old = pairs[i][1]
                if current.group_sizes[old - 1] <= 1:
                    continue
                pairs[i] = (pairs[i][0], rng.choice([g for g in range(1, current.group_count + 1) if g != old]))
                candidate = build_profile(pairs, current.group_count)
            else:
                i = rng.randrange(current.n)
                own = pairs[i][0]
                moved = min(1.0, max(0.0, own + rng.uniform(-config.perturbation_scale, config.perturbation_scale)))
                if moved == own:
                    continue
                candidate = current.deviations((i,))(moved)
            scored.append(candidate)
            candidate_ratio = ratio(candidate, mechanism, spec).ratio
            if candidate_ratio > current_ratio:
                current, current_ratio = candidate, candidate_ratio
                if candidate_ratio > best_ratio:
                    best_profile, best_ratio = candidate, candidate_ratio
                    trace.append((step, best_ratio))
        scored_per_restart.append(scored)
    return WorstCaseReport(best_profile, best_ratio, tuple(trace)), scored_per_restart


def first_occurrences(profiles):
    seen, out = set(), []
    for p in profiles:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def climb_with_scored(monkeypatch, mechanism, spec, config, seed_profiles=()):
    """`hill_climb`'s report, and per restart every profile the restart scores, in order.

    Restarts in forked lanes score out of this process's sight, so the
    profiles are counted on `adversary._climb`, run here for every restart.
    """
    report = hill_climb(mechanism, spec, config, seed_profiles)
    scored = []

    def counted(profile, mech, objective):
        scored[-1].append(profile)
        return ratio(profile, mech, objective)

    monkeypatch.setattr(adversary, "ratio", counted)
    fn = adversary.as_mechanism_fn(mechanism)
    for r in range(config.restarts):
        scored.append([])
        start = seed_profiles[r] if r < len(seed_profiles) else random_profile(config, r)
        adversary._climb(fn, spec, config, start, r)
    return report, scored


@pytest.fixture(
    scope="module",
    params=[(pair, seed) for pair in PROVEN for seed in range(4)],
    ids=lambda param: "{}-{}-seed{}".format(*param[0], param[1]),
)
def pinned_climbs(request):
    """Reference and `hill_climb` runs of one configuration of `test_conformance_reports_are_pinned`."""
    (rule, objective), seed = request.param
    mechanism, spec = parse_mechanism(rule), parse_objective(objective)
    family = (cli.tight_family_profile(mechanism, spec, 8),)
    config = SearchConfig(
        seed=seed, n_range=(2, 8), m_range=(1, 4), restarts=6, iterations=300, perturbation_scale=0.15
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        report, scored = climb_with_scored(monkeypatch, mechanism, spec, config, family)
    return reference_climb(mechanism, spec, config, family), (report, scored)


class TestRepeatSkip:
    def test_reports_equal_the_reference(self, pinned_climbs):
        (expected, _), (report, _) = pinned_climbs
        assert (report.best_ratio, report.best_profile, report.trace) == (
            expected.best_ratio,
            expected.best_profile,
            expected.trace,
        )
        assert report.best_profile.raw() == expected.best_profile.raw()

    def test_each_distinct_profile_is_scored_once_per_restart(self, pinned_climbs):
        (_, reference_scored), (_, scored) = pinned_climbs
        # Each restart scores the reference's profiles, less its repeats, in the same order.
        assert scored == [first_occurrences(restart) for restart in reference_scored]
        assert sum(map(len, scored)) < sum(map(len, reference_scored))

    def test_plain_callable_rule_matches_the_reference(self, monkeypatch):
        config = SearchConfig(seed=4, n_range=(2, 6), m_range=(1, 3), iterations=150, restarts=3)
        for spec in (MTGC, MAGC):
            expected, reference_scored = reference_climb(mean_mechanism, spec, config)
            report, scored = climb_with_scored(monkeypatch, mean_mechanism, spec, config)
            assert report == expected
            assert scored == [first_occurrences(restart) for restart in reference_scored]
