"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 reproduces every annotated corpus number exactly (tolerance 1e-9,
under one second). Criteria 2-4 are bounded-search and seeded-family evidence
for the proven worst-case bounds; criterion 5 exercises the unboundedness
dichotomy; criterion 6 cross-validates the exact oracle against brute force.
"""

import math
import time
from fractions import Fraction

import pytest

from fairline import (
    ALT_OBJECTIVES,
    IIF1,
    IIF2,
    MAGC,
    MTGC,
    MechanismId,
    SearchConfig,
    batch_group_sp_audit,
    batch_sp_audit,
    bound_conformance,
    eval_outcome,
    hill_climb,
    load_fixtures,
    lower_bound_probe,
    optimize,
    parse_mechanism,
    random_profile,
    run_corpus,
)
from fairline import families
from grid_oracle import grid_optimize


def _ratio_against(opt_value: float, mech_value: float) -> float:
    if opt_value == 0.0:
        return 1.0 if mech_value == 0.0 else math.inf
    return mech_value / opt_value


def test_criterion_1_fixture_reproduction():
    started = time.perf_counter()
    results = run_corpus()
    elapsed = time.perf_counter() - started
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert len(results) >= 30
    assert elapsed < 1.0, f"fixture reproduction took {elapsed:.3f}s"

    # Spot-check the headline numbers straight off the corpus profiles.
    by_name = {fx.name: fx.profile for fx in load_fixtures()}
    k = 50
    opt = optimize(by_name["tight_average_family_k50"], MAGC)
    assert opt.location == pytest.approx(float(Fraction(4 * k - 1, 6 * k)), abs=1e-9)
    assert opt.value == pytest.approx(float(Fraction(2 * k + 1, 6 * k)), abs=1e-9)
    # Independent confirmation of the crossing-point optimum by brute force.
    grid = grid_optimize(by_name["tight_average_family_k50"], MAGC, 10**6)
    assert grid.value == pytest.approx(opt.value, abs=1e-5)
    print(f"[acceptance] criterion 1 (fixture reproduction, {len(results)} checks, {elapsed:.3f}s): PASS")


def test_criterion_2_proven_bound_conformance():
    config = SearchConfig(seed=1202, n_range=(1, 10), m_range=(1, 4), iterations=1, restarts=1)
    profiles = [random_profile(config, i) for i in range(10_000)]
    profiles.extend(fx.profile for fx in load_fixtures())

    fixed_pairs = [
        (parse_mechanism("mgdm"), MTGC, 3.0),
        (parse_mechanism("mdm"), MAGC, 3.0),
        (parse_mechanism("mgdm"), MAGC, 3.0),
        (parse_mechanism("nrm"), MAGC, 2.0),
    ]
    exceedances = []
    for p in profiles:
        opts = {spec.label: optimize(p, spec).value for spec in (MTGC, MAGC, IIF1, IIF2)}
        pairs = list(fixed_pairs)
        for k in sorted({1, (p.n + 1) // 2, p.n}):
            pairs.append((MechanismId("kldm", k), IIF1, 4.0))
            pairs.append((MechanismId("kldm", k), IIF2, 4.0))
        for mech, spec, bound in pairs:
            value = eval_outcome(p, spec, mech.apply(p))
            rho = _ratio_against(opts[spec.label], value)
            if rho > bound + 1e-9:
                exceedances.append((p.raw(), mech.label, spec.label, rho, bound))
    assert not exceedances, exceedances[:3]
    print(f"[acceptance] criterion 2 (proven bounds over {len(profiles)} instances): PASS")


def test_criterion_3_strategyproofness_audit():
    config = SearchConfig(seed=1303, n_range=(1, 12), m_range=(1, 4), iterations=1, restarts=1)
    profiles = [random_profile(config, i) for i in range(1_000)]
    profiles.extend(fx.profile for fx in load_fixtures())

    violations = []
    for p in profiles:
        mechs = [parse_mechanism(m) for m in ("mdm", "ldm", "mgdm", "rm", "nrm")]
        mechs.extend(MechanismId("kldm", k) for k in sorted({1, (p.n + 1) // 2, p.n}))
        for mech, found in zip(mechs, batch_sp_audit(mechs, p, 101)):
            violations.extend((mech.label, p.raw(), f) for f in found)
        for mech, found in zip(mechs, batch_group_sp_audit(mechs, p, 101)):
            violations.extend((mech.label, p.raw(), f) for f in found)
    assert not violations, violations[:3]
    print(f"[acceptance] criterion 3 (zero audit findings over {len(profiles)} profiles): PASS")


def test_criterion_4_adversarial_tightness():
    base = dict(n_range=(2, 8), m_range=(1, 4), restarts=2, iterations=150)
    runs = [
        ("mgdm", MTGC, 3.0, 2.9, families.tight_largest_group_total()),
        ("mdm", MAGC, 3.0, 2.7, families.tight_average_family(50)),
        ("nrm", MAGC, 2.0, 1.9, families.tight_average_family(50)),
        ("kldm:1", IIF1, 4.0, 3.8, families.balanced_split_pair(10)),
    ]
    for label, spec, bound, threshold, seed_profile in runs:
        config = SearchConfig(seed=404, **base)
        conformant, report = bound_conformance(
            parse_mechanism(label), spec, bound, config, (seed_profile,)
        )
        assert conformant, (label, spec.label, report.best_ratio)
        assert report.best_ratio >= threshold, (label, spec.label, report.best_ratio)

    # Growing families: the best ratio found must track the linear envelope.
    growth = [
        ("ldm", MTGC, [4, 8, 16], families.single_group_two_clusters, lambda k: k - 1),
        ("rm", MTGC, [4, 8, 16], families.three_group_center_mass, lambda k: (k - 1) / 2),
        ("nrm", MTGC, [4, 8, 16], families.three_group_center_mass, lambda k: (k - 1) / 2),
        ("mdm", MTGC, [4, 8, 16], lambda m: families.group_median_family(m), lambda m: m),
    ]
    for label, spec, ks, family, envelope in growth:
        bests = []
        for k in ks:
            seed_profile = family(k)
            config = SearchConfig(
                seed=505, n_range=(seed_profile.n, seed_profile.n), m_range=(1, 4),
                restarts=1, iterations=40,
            )
            report = hill_climb(parse_mechanism(label), spec, config, (seed_profile,))
            assert report.best_ratio >= envelope(k) - 1e-9, (label, k, report.best_ratio)
            bests.append(report.best_ratio)
        assert bests[0] < bests[1] < bests[2], (label, bests)
    print("[acceptance] criterion 4 (adversarial tightness and growth): PASS")


def test_criterion_5_unboundedness_demonstration():
    deterministic = [
        parse_mechanism(label)
        for label in ("mdm", "ldm", "kldm:1", "kldm:2", "mgdm", "mogm", "mog:1", "mog:2")
    ]
    for mech in deterministic:
        for spec in ALT_OBJECTIVES:
            verdict = lower_bound_probe(mech, spec, math.inf, 0.0)
            assert not verdict.is_inconclusive, (mech.label, spec.label)
            if verdict.is_witness:
                assert math.isinf(verdict.ratio), (mech.label, spec.label, verdict.ratio)
            else:
                assert verdict.finding is not None
    print("[acceptance] criterion 5 (unbounded contrast objectives): PASS")


def test_criterion_6_oracle_cross_validation():
    resolution = 100_000
    config = SearchConfig(seed=1606, n_range=(1, 10), m_range=(1, 4), iterations=1, restarts=1)
    profiles = [random_profile(config, i) for i in range(500)]
    profiles.extend(fx.profile for fx in load_fixtures())
    for i, p in enumerate(profiles):
        x1, xn = p.span
        lipschitz = p.n * (xn - x1) / resolution
        for spec in (MTGC, MAGC, IIF1, IIF2):
            exact = optimize(p, spec)
            grid = grid_optimize(p, spec, resolution)
            assert exact.value <= grid.value + 1e-9, (i, spec.label)
            assert grid.value - exact.value <= lipschitz + 1e-9, (i, spec.label)
        ml, mr = min(p.group_medians), max(p.group_medians)
        for spec in (MTGC, MAGC):
            opt = optimize(p, spec)
            assert ml - 1e-9 <= opt.location <= mr + 1e-9, (i, spec.label, opt.location)
    print(f"[acceptance] criterion 6 (exact vs grid oracle on {len(profiles)} instances): PASS")
