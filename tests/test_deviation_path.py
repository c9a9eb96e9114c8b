"""The spliced deviation path against a full rebuild.

`GroupedProfile.deviations` takes a deviator set out of an already sorted
profile once and splices each report back in. `rebuild_audit_sets` is a
test-only reference: the audit loop run one mechanism at a time on its own
candidate set, rebuilding every deviated profile with `build_profile`. Both
must give equal profiles and exactly equal findings.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from fairline import GroupedProfile, InvalidLocationError, agent_cost, build_profile, parse_mechanism
from fairline import audit
from fairline.instances import parse_instance, serialize_instance
from fairline.audit import VIOLATION_TOL, AuditFinding, misreport_candidates, threshold_candidates
from fairline.mechanisms import MechanismId, as_mechanism_fn

from conftest import mean_mechanism, random_pairs

PROFILES = 10_000
VIEWS = ("locations", "group_locations", "group_sizes", "group_medians")


def _report(rng: random.Random, profile) -> float:
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(profile.locations)  # ties with an existing agent
    if roll < 0.5:
        return rng.choice((0.0, -0.0))
    return round(rng.uniform(-3.0, 3.0), rng.choice((0, 1, 2)))


def _rebuilt(profile, indices, report):
    pairs = profile.raw()
    for i in indices:
        pairs[i] = (report, pairs[i][1])
    return build_profile(pairs, profile.group_count)


def _signs(profile) -> list[float]:
    floats = [*profile.locations, *profile.group_medians]
    for locs in profile.group_locations:
        floats.extend(locs)
    return [math.copysign(1.0, x) for x in floats]


def _assert_same(got, want, context):
    for view in VIEWS:
        assert getattr(got, view) == getattr(want, view), (view, context)
    # `==` cannot tell 0.0 from -0.0; the order of tied agents can.
    assert _signs(got) == _signs(want), context
    assert got == want and got.n == want.n and got.span == want.span, context


def test_splice_matches_rebuild():
    rng = random.Random(5)
    for k in range(PROFILES):
        pairs, m = random_pairs(rng)
        profile = build_profile(pairs, m)
        i = rng.randrange(-profile.n, profile.n)
        report = _report(rng, profile)
        _assert_same(profile.deviations((i,))(report), _rebuilt(profile, (i,), report), (k, pairs, i, report))
        # A colocated set, or any subset of agents, moving together.
        if rng.random() < 0.5:
            sets = audit._colocated_sets(profile)
            indices = rng.choice(sets)
        else:
            indices = tuple(rng.sample(range(profile.n), rng.randint(1, profile.n)))
        report = _report(rng, profile)
        context = (k, pairs, indices, report)
        _assert_same(profile.deviations(indices)(report), _rebuilt(profile, indices, report), context)


def test_splice_matches_rebuild_with_many_groups_colocated():
    # n >= 200 agents on a few dozen locations, each shared by agents of
    # several groups: a deviator's group comes from its rank among the agents
    # at its location.
    rng = random.Random(7)
    for k in range(20):
        m = rng.randint(2, 5)
        spots = [round(rng.uniform(-2.0, 2.0), 2) for _ in range(rng.randint(5, 40))]
        pairs = [(rng.choice(spots), 1 + i % m) for i in range(rng.randint(200, 400))]
        profile = build_profile(pairs, m)
        raw = profile.raw()
        for i in range(-profile.n, profile.n):
            assert set(profile.deviations((i,)).moved) == {raw[i][1]}, (k, i)
        for _ in range(20):
            indices = tuple(rng.sample(range(profile.n), rng.randint(1, 6)))
            report = _report(rng, profile)
            _assert_same(profile.deviations(indices)(report), _rebuilt(profile, indices, report), (k, indices, report))


def test_splice_of_a_splice_matches_rebuild():
    rng = random.Random(6)
    for _ in range(500):
        pairs, m = random_pairs(rng)
        profile = want = build_profile(pairs, m)
        for _ in range(5):
            i = rng.randrange(profile.n)
            report = _report(rng, profile)
            profile = profile.deviations((i,))(report)
            want = _rebuilt(want, (i,), report)
            _assert_same(profile, want, (pairs, i, report))


@pytest.mark.parametrize("report", [math.nan, math.inf, -math.inf])
def test_nonfinite_report_rejected(report):
    profile = build_profile([(0, 1), (1, 2), (1, 2)], 2)
    with pytest.raises(InvalidLocationError):
        profile.deviations((0,))(report)
    with pytest.raises(InvalidLocationError):
        profile.deviations((1, 2))(report)


@pytest.mark.parametrize("report", [math.nan, math.inf, -math.inf])
def test_nonfinite_report_rejected_with_no_deviator(report):
    # The path checks the report itself, even when no deviator takes it.
    profile = build_profile([(0, 1), (1, 1)], 1)
    with pytest.raises(InvalidLocationError):
        profile.deviations(())(report)


class _OffByOne(float):
    """A float whose own addition is wrong: a path that added to it as to a float would show it."""

    def __add__(self, other):
        return float(self) + other + 1.0


# Reports that are not plain floats: the path converts them as `build_profile` does.
OTHER_REPORTS = [0, 3, -2, True, False, Fraction(1, 3), Fraction(-7, 2), _OffByOne(0.5), _OffByOne(-0.0)]


@pytest.mark.parametrize("report", OTHER_REPORTS, ids=repr)
def test_reports_of_other_types_match_rebuild(report):
    # Sorted pairs (0,1) (1,2) (1,2) (2,3) (3,1): (1, 2) is one group's, (0, 3) two groups'.
    profile = build_profile([(3, 1), (1, 2), (0, 1), (2, 3), (1, 2)], 3)
    for indices in [(1, 2), (4,), (0, 3), (0, 1, 3), ()]:
        got = profile.deviations(indices)(report)
        _assert_same(got, _rebuilt(profile, indices, report), (indices, report))
        assert all(type(x) is float for x in got.locations), (indices, report)
        assert all(type(x) is float for members in got.group_locations for x in members), (indices, report)


@pytest.mark.parametrize("indices", [(1, 2), (0, 3), ()])
def test_int_past_the_float_range_rejected(indices):
    profile = build_profile([(3, 1), (1, 2), (0, 1), (2, 3), (1, 2)], 3)
    with pytest.raises(InvalidLocationError):
        profile.deviations(indices)(10**400)


def _zero_signs(profile) -> set[float]:
    floats = [*profile.locations, *profile.group_medians]
    for locs in profile.group_locations:
        floats.extend(locs)
    return {math.copysign(1.0, x) for x in floats if x == 0.0}


def test_profiles_hold_one_zero():
    pairs = [(-0.0, 1), (0.0, 1), (-0.0, 2)]
    built = build_profile(pairs, 2)
    direct = GroupedProfile(((-0.0, 0.0), (-0.0,)))
    for profile in (built, direct):
        assert _zero_signs(profile) == {1.0}
        text = serialize_instance(profile)
        assert "-0.0" not in text
        assert parse_instance(text) == profile and _zero_signs(parse_instance(text)) == {1.0}
    profile = build_profile([(-1, 1), (0.5, 2), (2, 1)], 2)
    for i in range(profile.n):
        assert _zero_signs(profile.deviations((i,))(-0.0)) == {1.0}
    for deviators in [(), *_deviator_sets(built)]:
        assert _zero_signs(built.deviations(deviators)(-0.0)) == {1.0}


def test_overflowed_candidate_rejected():
    # x1 - width overflows to -inf: the audit must refuse it, not place it.
    profile = build_profile([(-1.7e308, 1), (1.7e308, 1)], 1)
    assert misreport_candidates(profile, 1, 1)[0] == -math.inf
    with pytest.raises(InvalidLocationError):
        audit.sp_audit(parse_mechanism("mdm"), profile, 1)


def rebuild_audit_sets(mechanisms, profile, resolution, deviator_sets):
    """The audit loop, one mechanism at a time, with a full `build_profile` for every candidate.

    Built-in rules try their complete threshold set, callables the grid.
    """
    findings = []
    for mechanism in mechanisms:
        fn = as_mechanism_fn(mechanism)
        truthful = fn(profile)
        found = []
        for deviators in deviator_sets:
            true_loc = profile.locations[deviators[0]]
            t_cost = agent_cost(truthful, true_loc)
            if isinstance(mechanism, MechanismId):
                cands = threshold_candidates(profile, deviators[0])
            else:
                cands = misreport_candidates(profile, deviators[0], resolution)
            for cand in cands:
                d_cost = agent_cost(fn(_rebuilt(profile, deviators, cand)), true_loc)
                if d_cost < t_cost - VIOLATION_TOL:
                    found.append(AuditFinding(deviators, true_loc, cand, t_cost, d_cost))
        findings.append(found)
    return findings


def _all_rules(profile):
    tags = ["mdm", "ldm", "mgdm", "rm", "nrm", "mogm"]
    tags += [f"kldm:{k}" for k in sorted({1, (profile.n + 1) // 2, profile.n})]
    tags += [f"mog:{j}" for j in range(1, profile.group_count + 1)]
    return [parse_mechanism(t) for t in tags] + [mean_mechanism]


@pytest.mark.parametrize("resolution, count", [(1, 150), (7, 150), (101, 40)])
def test_audit_findings_match_rebuild(resolution, count):
    rng = random.Random(resolution)
    found = [0, 0]
    for _ in range(count):
        pairs, m = random_pairs(rng, max_n=8)
        profile = build_profile(pairs, m)
        rules = _all_rules(profile)
        singles = [(i,) for i in range(profile.n)]
        want = rebuild_audit_sets(rules, profile, resolution, singles)
        assert audit.batch_sp_audit(rules, profile, resolution) == want, pairs
        found[0] += sum(map(len, want))
        joint = [s for s in audit._colocated_sets(profile) if len(s) > 1]
        want = rebuild_audit_sets(rules, profile, resolution, joint)
        assert audit.batch_group_sp_audit(rules, profile, resolution) == want, pairs
        found[1] += sum(map(len, want))
    assert all(found)  # the mean rule keeps both comparisons from being vacuous


def test_both_candidate_lists_are_strictly_ascending():
    # Each mechanism's findings come in the order of its own list.
    rng = random.Random(11)
    for _ in range(300):
        pairs, m = random_pairs(rng, max_n=8)
        profile = build_profile(pairs, m)
        for agent in range(profile.n):
            grid = misreport_candidates(profile, agent, rng.choice((1, 2, 7, 101)))
            complete = threshold_candidates(profile, agent)
            for cands in (grid, complete):
                assert all(a < b for a, b in zip(cands, cands[1:])), (pairs, agent)


def _views(profile):
    return [getattr(profile, view) for view in VIEWS], _signs(profile)


def _deviator_sets(profile):
    singles = [(i,) for i in range(profile.n)]
    return singles + [s for s in audit._colocated_sets(profile) if len(s) > 1]


def test_one_path_serves_every_report_of_a_deviator_set():
    rng = random.Random(7)
    for k in range(150):
        pairs, m = random_pairs(rng, max_n=8)
        profile = build_profile(pairs, m)
        before = _views(profile)
        for deviators in _deviator_sets(profile):
            path = profile.deviations(deviators)
            ascending = sorted(
                set(threshold_candidates(profile, deviators[0])) | set(misreport_candidates(profile, deviators[0], 7))
            )
            # Ties with agents of every group, and both signs of zero.
            ties = [*profile.locations, 0.0, -0.0]
            for report in [*ascending, *reversed(ascending), *ties, *ties, *ascending[:1] * 2]:
                context = (k, pairs, deviators, report)
                _assert_same(path(report), _rebuilt(profile, deviators, report), context)
            for report in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidLocationError):
                    path(report)
        assert _views(profile) == before, pairs


def test_audit_builds_one_path_per_deviator_set(monkeypatch):
    built = []
    original = GroupedProfile.deviations

    def counted(self, indices):
        built.append(tuple(indices))
        return original(self, indices)

    monkeypatch.setattr(GroupedProfile, "deviations", counted)
    profile = build_profile([(0, 1), (0.3, 2), (0.3, 1), (1, 2), (1, 3)], 3)
    audit.batch_sp_audit(_all_rules(profile), profile, 11)
    assert built == [(i,) for i in range(profile.n)]
    built.clear()
    audit.batch_group_sp_audit(_all_rules(profile), profile, 11)
    assert built == [(1, 2), (3, 4)]
