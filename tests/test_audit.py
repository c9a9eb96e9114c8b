import dataclasses
import hashlib
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest

from fairline import (
    AuditFinding,
    ConstructionInapplicableError,
    FacilityOutcome,
    IIF1,
    InvalidLocationError,
    MAGC,
    MTGC,
    agent_cost,
    alt,
    audit,
    build_profile,
    group_sp_audit,
    kldm,
    lower_bound_probe,
    misreport_candidates,
    parse_mechanism,
    sp_audit,
)
from fairline.families import (
    singleton_pair,
    three_group_center_mass,
    tight_largest_group_total,
    group_median_family,
)

from conftest import mean_mechanism, random_pairs
from test_deviation_path import _all_rules, rebuild_audit_sets

MAX = sys.float_info.max
DETERMINISTIC = ["mdm", "ldm", "kldm:1", "kldm:2", "mgdm", "mogm", "mog:1", "mog:2"]


class TestMisreportCandidates:
    def test_pair_construction(self):
        cands = misreport_candidates(singleton_pair(), 0, 11)
        assert 1.0 in cands
        assert 2.0 in cands
        assert min(cands) >= -1.0 - 1e-12 and max(cands) <= 2.0 + 1e-12

    def test_true_location_always_excluded(self):
        p = tight_largest_group_total()
        for i in range(p.n):
            own = p.locations[i]
            assert all(abs(c - own) > 1e-12 for c in misreport_candidates(p, i, 31))

    def test_half_pair_includes_far_extreme(self):
        p = build_profile([(0, 1), (0.5, 2)], 2)
        assert 1.0 in misreport_candidates(p, 1, 11)

    def test_validation(self):
        with pytest.raises(IndexError):
            misreport_candidates(singleton_pair(), 5, 11)
        with pytest.raises(ValueError):
            misreport_candidates(singleton_pair(), 0, 0)
        with pytest.raises(IndexError):
            audit.threshold_candidates(singleton_pair(), 2)
        with pytest.raises(ValueError):
            sp_audit(parse_mechanism("mdm"), singleton_pair(), 0)

    def test_bad_index_is_reported_before_a_bad_resolution(self):
        for agent in (5, -1):
            with pytest.raises(IndexError):
                misreport_candidates(singleton_pair(), agent, 0)

    def test_grid_candidates_are_pinned(self):
        # Black-box rules keep their candidate lists bit for bit; this digest pins them.
        rng = random.Random(8)
        digest = hashlib.sha256()
        for _ in range(300):
            p = build_profile(*random_pairs(rng, max_n=9, digits=(0, 1, 2, 6, None)))
            for agent in range(p.n):
                for resolution in (1, 2, 7, 101):
                    cands = misreport_candidates(p, agent, resolution)
                    digest.update(" ".join(c.hex() for c in cands).encode() + b";")
        assert digest.hexdigest() == "6fb58b604920737cc341e15d7138cb3f11cc27810f480076221c398f0abcd528"

    def test_complete_set_is_thresholds_and_span_ends(self):
        p = build_profile([(0, 1), (0.25, 1), (1, 2)], 2)
        # Others at 0.25 and 1 (also the group medians), reflections about 0 at -0.25
        # and -1, and the span widened by its width to [-1, 2].
        assert audit.threshold_candidates(p, 0) == [-1.0, -0.25, 0.25, 1.0, 2.0]
        assert set(audit.threshold_candidates(p, 1)) < set(misreport_candidates(p, 1, 101))

    def test_colocated_agents_get_equal_candidates(self):
        # The audit builds one candidate plan per true location and shares it
        # among the agents there, which is sound only while this holds.
        rng = random.Random(28)
        for _ in range(300):
            p = build_profile(*random_pairs(rng, max_n=9, digits=(0, 1, 2, 6, None)))
            first = {}
            for agent, x in enumerate(p.locations):
                lists = (audit.threshold_candidates(p, agent),) + tuple(
                    misreport_candidates(p, agent, resolution) for resolution in (1, 7, 101)
                )
                assert first.setdefault(x, lists) == lists


class TestNearTheFloatMaximum:
    """Candidates whose plain arithmetic overflows, on profiles whose span width is finite."""

    # A finite span width, with widened ends and reflections past the float range.
    PROFILES = [
        [(-6e307, 1), (6e307, 1), (0.0, 2)],
        [(-8e307, 1), (1e307, 2), (8e307, 1), (8e307, 2)],
        [(1e308, 1), (1.7e308, 1), (1.2e308, 2), (1.2e308, 1)],
        [(-1.7e308, 1), (-1.6e308, 2), (5e-324, 1)],
    ]

    @staticmethod
    def _widened(profile):
        x1, xn = profile.span
        return max(x1 - (xn - x1), -MAX), min(xn + (xn - x1), MAX)

    @pytest.mark.parametrize("pairs", PROFILES)
    def test_reflections_are_kept_where_finite(self, pairs):
        profile = build_profile(pairs, 2)
        for agent, own in enumerate(profile.locations):
            _, points, lo, hi = audit._thresholds(profile, agent)
            want = set(profile.locations)
            for c in profile.locations:
                try:
                    want.add(float(2 * Fraction(own) - Fraction(c)))
                except OverflowError:
                    pass  # past the float range: no finite report reaches it
            assert points == want, (pairs, agent)
            assert (lo, hi) == self._widened(profile), (pairs, agent)

    @pytest.mark.parametrize("pairs", PROFILES)
    def test_candidates_are_finite_and_span_the_float_range(self, pairs):
        profile = build_profile(pairs, 2)
        lo, hi = self._widened(profile)
        assert -MAX in (lo, hi) or MAX in (lo, hi)
        for agent in range(profile.n):
            for cands in [audit.threshold_candidates(profile, agent)] + [
                misreport_candidates(profile, agent, resolution) for resolution in (1, 2, 7, 101)
            ]:
                assert all(math.isfinite(c) for c in cands), (pairs, agent)
                assert all(a < b for a, b in zip(cands, cands[1:])), (pairs, agent)
                assert lo <= cands[0] and cands[-1] <= hi, (pairs, agent)
            grid = misreport_candidates(profile, agent, 101)
            assert lo in grid and max(grid) > hi * (1 - 1e-15), (pairs, agent)

    @pytest.mark.parametrize("pairs", PROFILES)
    def test_audits_run_and_match_rebuild(self, pairs):
        profile = build_profile(pairs, 2)
        rules = _all_rules(profile)[:-1]  # the mean control's own sum overflows here
        singles = [(i,) for i in range(profile.n)]
        assert audit.batch_sp_audit(rules, profile, 7) == rebuild_audit_sets(rules, profile, 7, singles)
        joint = [s for s in audit._colocated_sets(profile) if len(s) > 1]
        assert audit.batch_group_sp_audit(rules, profile, 7) == rebuild_audit_sets(rules, profile, 7, joint)

    def test_a_span_wider_than_the_float_range_is_refused(self):
        # Costs across such a span overflow, so its widened ends stay infinite.
        profile = build_profile([(-1e308, 1), (1.7e308, 2)], 2)
        assert audit._thresholds(profile, 0)[2:] == (-math.inf, math.inf)
        with pytest.raises(InvalidLocationError):
            sp_audit(parse_mechanism("mdm"), profile, 7)


class TestSpAudit:
    def test_largest_group_rule_is_clean_on_tight_profile(self):
        assert sp_audit(parse_mechanism("mgdm"), tight_largest_group_total(), 101) == []

    def test_narrow_lottery_is_clean_on_center_mass(self):
        assert sp_audit(parse_mechanism("nrm"), three_group_center_mass(10), 101) == []

    def test_mean_rule_is_caught(self):
        findings = sp_audit(mean_mechanism, singleton_pair(), 11)
        assert findings
        # The right agent pulls the mean toward itself by exaggerating rightward.
        right = [f for f in findings if f.deviators == (1,) and f.misreport > 1.0]
        assert right

    def test_findings_are_sound(self):
        for f in sp_audit(mean_mechanism, singleton_pair(), 11):
            i = f.deviators[0]
            profile = singleton_pair()
            truthful = agent_cost(mean_mechanism(profile), f.true_location)
            deviated = profile.deviations((i,))(f.misreport)
            deviating = agent_cost(mean_mechanism(deviated), f.true_location)
            assert truthful == pytest.approx(f.truthful_cost, abs=1e-12)
            assert deviating == pytest.approx(f.deviating_cost, abs=1e-12)
            assert deviating < truthful - 1e-9

    def test_mean_rule_findings_unchanged_by_built_in_batchmates(self):
        p = build_profile([(0, 1), (0.3, 1), (1, 2)], 2)
        rules = [parse_mechanism(t) for t in ("mdm", "ldm", "mgdm", "rm", "nrm", "mogm", "kldm:2", "mog:2")]
        alone = sp_audit(mean_mechanism, p, 101)
        assert len(alone) == 97
        mixed = audit.batch_sp_audit([*rules[:4], mean_mechanism, *rules[4:]], p, 101)
        assert mixed[4] == alone
        assert not any(mixed[:4] + mixed[5:])

    def test_built_in_rules_alone_make_no_grid(self, monkeypatch):
        calls = []
        real = audit.misreport_candidates
        monkeypatch.setattr(audit, "misreport_candidates", lambda *args: calls.append(args) or real(*args))
        p = build_profile([(0, 1), (0.3, 1), (0.3, 2), (1, 2)], 2)
        rules = [parse_mechanism(t) for t in ("mdm", "rm", "nrm")]
        assert audit.batch_sp_audit(rules, p, 101) == [[], [], []]
        assert audit.batch_group_sp_audit(rules, p, 101) == [[], [], []]
        assert calls == []
        audit.batch_sp_audit(rules + [mean_mechanism], p, 101)
        assert len(calls) == len(set(p.locations))  # once per true location, shared by its agents

    def test_coarse_findings_subset_of_fine(self):
        coarse = sp_audit(mean_mechanism, singleton_pair(), 3)
        fine = sp_audit(mean_mechanism, singleton_pair(), 1001)
        coarse_keys = {(f.deviators, f.misreport) for f in coarse}
        fine_keys = {(f.deviators, f.misreport) for f in fine}
        assert coarse_keys <= fine_keys


class TestGroupSpAudit:
    def test_kth_rule_clean_on_split_clusters(self):
        derived = build_profile([(0, 1), (0.5, 1), (0.5, 1), (0, 2), (0, 2), (0.5, 2)], 2)
        mech = parse_mechanism("kldm:3")
        assert group_sp_audit(mech, derived, 101) == []
        # The colocated set at 1/2 jointly misreporting to 1 must not strictly gain.
        truthful = agent_cost(mech.apply(derived), 0.5)
        moved = build_profile([(0, 1), (1, 1), (1, 1), (0, 2), (0, 2), (1, 2)], 2)
        assert agent_cost(mech.apply(moved), 0.5) >= truthful - 1e-9

    def test_median_rule_clean_on_group_median_family(self):
        assert group_sp_audit(parse_mechanism("mdm"), group_median_family(3), 101) == []

    def test_lone_agents_are_left_to_the_individual_audit(self, monkeypatch):
        # No two agents share a location, so there is no joint deviation to check.
        p = build_profile([(0, 1), (0.3, 1), (1, 2)], 2)
        assert len(sp_audit(mean_mechanism, p, 101)) == 97
        calls = []
        monkeypatch.setattr(audit, "misreport_candidates", lambda *args: calls.append(args) or [])
        assert group_sp_audit(mean_mechanism, p, 101) == []
        assert calls == []

    def test_colocated_sets_match_a_brute_force_grouping(self):
        rng = random.Random(32)
        mixed = 0
        for _ in range(300):
            profile = build_profile(*_twinned_pairs(rng))
            locs = profile.locations
            want = sorted({tuple([i for i in range(profile.n) if locs[i] == x]) for x in locs})
            assert audit._colocated_sets(profile) == want, profile.raw()
            raw = profile.raw()
            mixed += any(len({raw[i][1] for i in s}) > 1 for s in want)
        assert mixed  # some sets hold agents of two or more groups

    def test_colocated_set_finding_spans_the_set(self):
        # Mean rule: both colocated agents at 1 gain by jointly exaggerating.
        p = build_profile([(0, 1), (1, 2), (1, 2)], 2)
        findings = group_sp_audit(mean_mechanism, p, 11)
        assert any(len(f.deviators) == 2 and f.true_location == 1.0 for f in findings)


def _twinned_pairs(rng: random.Random) -> tuple[list[tuple[float, int]], int]:
    """Seeded pairs with forced twins, agents of equal (location, group), some at mixed-group locations."""
    pairs, m = random_pairs(rng, max_n=7)
    for _ in range(rng.randint(1, 3)):
        x, g = rng.choice(pairs)
        pairs.append((x, g))
        if m > 1 and rng.random() < 0.5:
            pairs.append((x, rng.choice([h for h in range(1, m + 1) if h != g])))
    return pairs, m


def _first_group_mean(profile):
    """Not strategyproof for group 1 alone: a twin's group, not only its location, decides its findings."""
    members = profile.group_locations[0]
    return FacilityOutcome.at(sum(members) / len(members))


class TestTwins:
    """Agents with equal (location, group) share one deviation path and its findings."""

    @pytest.mark.parametrize("resolution", [1, 7])
    def test_findings_match_rebuild(self, resolution):
        rng = random.Random(29 + resolution)
        found = [0, 0]
        for _ in range(120):
            pairs, m = _twinned_pairs(rng)
            profile = build_profile(pairs, m)
            rules = _all_rules(profile) + [_first_group_mean]
            singles = [(i,) for i in range(profile.n)]
            want = rebuild_audit_sets(rules, profile, resolution, singles)
            assert audit.batch_sp_audit(rules, profile, resolution) == want, pairs
            found[0] += len(want[-1])
            joint = [s for s in audit._colocated_sets(profile) if len(s) > 1]
            want = rebuild_audit_sets(rules, profile, resolution, joint)
            assert audit.batch_group_sp_audit(rules, profile, resolution) == want, pairs
            found[1] += len(want[-1])
        assert all(found)

    def test_twin_findings_differ_only_in_deviators(self):
        rng = random.Random(30)
        twins = 0
        for _ in range(150):
            profile = build_profile(*_twinned_pairs(rng))
            rules = _all_rules(profile)
            raw = profile.raw()
            for found in audit.batch_sp_audit(rules, profile, 7):
                for i in range(1, profile.n):
                    if raw[i] == raw[i - 1]:
                        mine = [f for f in found if f.deviators == (i,)]
                        theirs = [f for f in found if f.deviators == (i - 1,)]
                        assert mine == [dataclasses.replace(f, deviators=(i,)) for f in theirs], raw
                        twins += bool(mine)
        assert twins  # the mean rule keeps the comparison from being vacuous

    def test_black_box_called_once_per_candidate_per_distinct_agent(self):
        rng = random.Random(31)
        for _ in range(150):
            profile = build_profile(*_twinned_pairs(rng))
            calls = []

            def counted(p):
                calls.append(p)
                return mean_mechanism(p)

            audit.batch_sp_audit([counted], profile, 7)
            distinct = dict.fromkeys(profile.raw())
            per_agent = [len(misreport_candidates(profile, profile.locations.index(x), 7)) for x, _ in distinct]
            assert len(distinct) < profile.n
            assert len(calls) == 1 + sum(per_agent)


class TestAuditFinding:
    FIELDS = ("deviators", "true_location", "misreport", "truthful_cost", "deviating_cost")
    ARGS = ((0, 2), 0.5, 1.0, 0.75, 0.25)

    def test_rejects_non_strict_violation(self):
        with pytest.raises(ValueError):
            AuditFinding((0,), 0.0, 1.0, truthful_cost=0.5, deviating_cost=0.5)
        with pytest.raises(ValueError, match="a finding must be a strict violation"):
            AuditFinding((0,), 0.0, 1.0, truthful_cost=0.5, deviating_cost=0.5 - 1e-9)

    def test_positional_and_keyword_construction_agree(self):
        finding = AuditFinding(*self.ARGS)
        assert AuditFinding(**dict(zip(self.FIELDS, self.ARGS))) == finding
        assert tuple(f.name for f in dataclasses.fields(finding)) == self.FIELDS
        assert dataclasses.astuple(finding) == self.ARGS

    def test_equality_hash_and_repr(self):
        finding = AuditFinding(*self.ARGS)
        twin = AuditFinding(*self.ARGS)
        assert finding == twin and hash(finding) == hash(twin)
        assert finding != AuditFinding((1,), *self.ARGS[1:])
        assert repr(finding) == (
            "AuditFinding(deviators=(0, 2), true_location=0.5, misreport=1.0, "
            "truthful_cost=0.75, deviating_cost=0.25)"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            finding.misreport = 2.0

    def test_replace_and_pickle(self):
        finding = AuditFinding(*self.ARGS)
        assert dataclasses.replace(finding, deviators=(1,)) == AuditFinding((1,), *self.ARGS[1:])
        with pytest.raises(ValueError, match="strict violation"):
            dataclasses.replace(finding, deviating_cost=0.75)
        restored = pickle.loads(pickle.dumps(finding))
        assert restored == finding and repr(restored) == repr(finding)

    def test_unchecked_equals_the_constructor_on_a_strict_finding(self):
        built, checked = AuditFinding._unchecked(*self.ARGS), AuditFinding(*self.ARGS)
        assert type(built) is AuditFinding
        assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)


class TestLowerBoundProbe:
    @pytest.mark.parametrize("label", DETERMINISTIC)
    @pytest.mark.parametrize("spec", [MTGC, MAGC])
    def test_deterministic_rules_meet_factor_two(self, label, spec):
        verdict = lower_bound_probe(parse_mechanism(label), spec, 2.0, 0.0)
        assert verdict.is_witness
        assert verdict.ratio >= 2.0 - 1e-9

    @pytest.mark.parametrize("label", ["rm", "nrm"])
    def test_randomized_rules_meet_three_halves(self, label):
        for spec in (MTGC, MAGC):
            verdict = lower_bound_probe(parse_mechanism(label), spec, 1.5, 0.0)
            assert verdict.is_witness
            assert verdict.ratio >= 1.5 - 1e-9

    def test_mean_rule_yields_sp_violation(self):
        verdict = lower_bound_probe(mean_mechanism, MTGC, 2.0, 0.0)
        assert verdict.is_violation
        f = verdict.finding
        assert f.deviating_cost < f.truthful_cost - 1e-9

    def test_mean_rule_on_contrast_family(self):
        verdict = lower_bound_probe(mean_mechanism, alt("a", "total"), math.inf, 0.0)
        assert verdict.is_violation
        assert verdict.finding.misreport == 1.0

    @pytest.mark.parametrize("label", DETERMINISTIC)
    def test_contrast_family_witnesses_are_unbounded(self, label):
        for form in ("a", "b"):
            verdict = lower_bound_probe(parse_mechanism(label), alt(form, "total"), math.inf, 0.0)
            assert verdict.is_witness
            assert math.isinf(verdict.ratio)

    def test_combined_measure_family_reaches_four(self):
        verdict = lower_bound_probe(parse_mechanism("kldm:1"), IIF1, 4.0, 0.05)
        assert verdict.is_witness
        assert verdict.ratio >= 4.0 - 0.05 - 1e-9

    def test_kth_rule_partial_group_clean_on_probe_family(self):
        # The probe's replicated instance is also a partial-group audit target.
        c = 2
        p = build_profile([(0, 1)] + [(1, 1)] * c + [(0, 2)] * c + [(1, 2)], 2)
        mech = parse_mechanism("kldm:3")
        assert group_sp_audit(mech, p, 51) == []
        assert sp_audit(mech, p, 51) == []

    def test_escaping_mechanism_raises(self):
        # A bound too high to witness forces the case analysis, which the
        # out-of-span placement then escapes.
        runaway = lambda profile: FacilityOutcome.at(-5.0)
        with pytest.raises(ConstructionInapplicableError):
            lower_bound_probe(runaway, MTGC, 1000.0, 0.0)


def test_appendix_style_rules_observed_without_assertion():
    """Median-of-medians and fixed-group rules: report audit behavior, assert nothing.

    Whether these two rules are strategyproof is left open; this records their
    behavior on the corpus so a regression is visible without claiming either way.
    """
    from fairline import load_fixtures, batch_sp_audit

    total = 0
    for fx in load_fixtures():
        mechs = [parse_mechanism("mogm")] + [
            parse_mechanism(f"mog:{j}") for j in range(1, fx.profile.group_count + 1)
        ]
        for findings in batch_sp_audit(mechs, fx.profile, 31):
            total += len(findings)
    print(f"[audit] appendix-style rules: {total} finding(s) on the corpus")
