import hashlib
import random

import pytest

from fairline import (
    MAGC,
    MTGC,
    SearchConfig,
    bound_conformance,
    build_profile,
    cli,
    hill_climb,
    parse_mechanism,
    parse_objective,
    random_profile,
    ratio,
)
from fairline.adversary import _perturb
from fairline.families import single_group_two_clusters, tight_largest_group_total


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
            candidate = _perturb(profile, rng, 0.1)
            i = replay.randrange(profile.n)
            own = profile.agents[i].location
            moved = min(1.0, max(0.0, own + replay.uniform(-0.1, 0.1)))
            if moved == own:
                assert candidate is None
                skipped += 1
            else:
                assert candidate == profile.with_location(i, moved)
        assert 0 < skipped < 200
        assert rng.random() == replay.random()


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
