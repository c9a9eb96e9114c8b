"""Built-in rules read off a deviation path against `apply` on the deviated profile.

`MechanismId.path_reader(profile)` gives each built-in rule a reader of the
rest views a deviation path (`GroupedProfile.deviations`) carries. The audit
calls it at every candidate in place of `apply`, so it must return the very
support `apply` gives on the spliced profile, signs of zero included.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import pytest

from fairline import audit, build_profile, model, parse_mechanism
from fairline.audit import misreport_candidates, threshold_candidates
from fairline.mechanisms import _RULES, MechanismId
from fairline.model import _location

from conftest import mean_mechanism, random_pairs
from test_deviation_path import rebuild_audit_sets


def _every_rule(profile):
    """Every built-in tag: kldm at every k in 1..n and mog at every j in 1..m."""
    labels = [tag for tag, rule in _RULES.items() if not rule.takes_param]
    labels += [f"kldm:{k}" for k in range(1, profile.n + 1)]
    labels += [f"mog:{j}" for j in range(1, profile.group_count + 1)]
    return [parse_mechanism(label) for label in labels]


def _bits(support):
    return [(pt.hex(), p.hex()) for pt, p in support]


def _reports(profile, deviators):
    """Every threshold and grid candidate of the deviators, ties with every agent, and both zeros."""
    first = deviators[0]
    cands = threshold_candidates(profile, first) + misreport_candidates(profile, first, 7)
    return [*cands, *profile.locations, 0.0, -0.0]


def _assert_readers_match(profile, deviator_sets, rules=None):
    rules = _every_rule(profile) if rules is None else rules
    readers = [m.path_reader(profile) for m in rules]
    for deviators in deviator_sets:
        path = profile.deviations(deviators)
        rest, size, moved = path.rest, path.size, path.moved
        for raw_report in _reports(profile, deviators):
            report = _location(raw_report)
            spot = bisect_left(rest, report)
            deviated = path(raw_report)
            for mechanism, read in zip(rules, readers):
                got = read(rest, size, moved, report, spot)
                want = mechanism.apply(deviated).support
                assert _bits(got) == _bits(want), (profile.raw(), deviators, raw_report, mechanism.label)


def test_readers_match_apply_on_seeded_paths():
    rng = random.Random(33)
    colocated = 0
    for _ in range(300):
        profile = build_profile(*random_pairs(rng, max_n=8, max_m=4, digits=(0, 1, 2, None)))
        joint = [s for s in audit._colocated_sets(profile) if len(s) > 1]
        colocated += len(joint)
        _assert_readers_match(profile, [(i,) for i in range(profile.n)] + joint)
    assert colocated  # colocated paths, some across groups, were read too


def test_readers_match_apply_when_every_agent_moves():
    rng = random.Random(34)
    for _ in range(100):
        profile = build_profile(*random_pairs(rng, max_n=6, max_m=3))
        everyone = tuple(range(profile.n))
        assert profile.deviations(everyone).rest == ()
        _assert_readers_match(profile, [everyone])


def test_readers_match_apply_at_ties_and_zeros():
    # Colocated agents across groups, an agent at 0 and even-sized groups.
    profile = build_profile([(-1, 1), (0, 1), (0, 2), (0, 2), (0.5, 3), (1, 1), (1, 3), (2, 2)], 3)
    sets = [(i,) for i in range(profile.n)] + [s for s in audit._colocated_sets(profile) if len(s) > 1]
    _assert_readers_match(profile, sets)


@pytest.mark.parametrize(
    "pairs",
    [
        [(1.0, 1), (1.0000000000000002, 2)],  # ends one ulp apart: the midpoint rounds onto an end
        [(1e308, 1), (1.7e308, 2)],  # the ends' sum overflows
    ],
)
def test_lottery_readers_match_apply_at_rounding_and_overflow(pairs):
    rules = [parse_mechanism("rm"), parse_mechanism("nrm")]
    for copies in (1, 2):  # two copies of each agent make colocated sets
        profile = build_profile(pairs * copies, 2)
        joint = [s for s in audit._colocated_sets(profile) if len(s) > 1]
        assert len(joint) == (copies > 1) * len(pairs)
        _assert_readers_match(profile, [(i,) for i in range(profile.n)] + joint, rules)


@pytest.mark.parametrize("label", ["kldm:4", "mog:3"])
def test_reader_out_of_range_raises_as_apply(label):
    profile = build_profile([(0, 1), (1, 2), (2, 2)], 2)
    mechanism = parse_mechanism(label)
    with pytest.raises(IndexError) as applied:
        mechanism.apply(profile)
    with pytest.raises(IndexError) as read:
        mechanism.path_reader(profile)
    assert str(read.value) == str(applied.value)


def test_out_of_range_rule_raises_first_in_the_audit():
    profile = build_profile([(0, 1), (1, 2), (2, 2)], 2)
    with pytest.raises(IndexError, match="k must lie in 1..3, got 4"):
        audit.sp_audit(parse_mechanism("kldm:4"), profile, 7)


@pytest.mark.parametrize("resolution", [1, 7, 101])
def test_rule_findings_match_rebuild_with_no_deviated_profile(resolution, monkeypatch):
    built = []
    set_views = model._set_views
    monkeypatch.setattr(model, "_set_views", lambda *args: built.append(1) or set_views(*args))
    rng = random.Random(40 + resolution)
    for _ in range(60):
        pairs, m = random_pairs(rng, max_n=8)
        profile = build_profile(pairs, m)
        rules = _every_rule(profile)
        singles = [(i,) for i in range(profile.n)]
        joint = [s for s in audit._colocated_sets(profile) if len(s) > 1]
        built.clear()
        got = (
            audit.batch_sp_audit(rules, profile, resolution),
            audit.batch_group_sp_audit(rules, profile, resolution),
        )
        assert not built, pairs  # built-in rules alone get no deviated profile
        want = (
            rebuild_audit_sets(rules, profile, resolution, singles),
            rebuild_audit_sets(rules, profile, resolution, joint),
        )
        assert got == want, pairs


def test_deviated_profiles_only_for_callables(monkeypatch):
    profile = build_profile([(0, 1), (0.3, 2), (0.3, 1), (1, 2), (1, 3)], 3)
    built = []
    set_views = model._set_views
    monkeypatch.setattr(model, "_set_views", lambda *args: built.append(1) or set_views(*args))
    calls = []

    def counted(p):
        calls.append(p)
        return mean_mechanism(p)

    audit.batch_sp_audit(_every_rule(profile) + [counted], profile, 11)
    # One deviated profile per call of the callable, bar its truthful call.
    assert len(built) == len(calls) - 1 > 0


def test_audit_reads_rules_off_the_path(monkeypatch):
    applied, read = [], []
    apply, path_reader = MechanismId.apply, MechanismId.path_reader

    def counted_apply(self, profile):
        applied.append(profile)
        return apply(self, profile)

    def counted_reader(self, profile):
        reader = path_reader(self, profile)
        return lambda *args: read.append(1) or reader(*args)

    monkeypatch.setattr(MechanismId, "apply", counted_apply)
    monkeypatch.setattr(MechanismId, "path_reader", counted_reader)
    profile = build_profile([(0, 1), (0.3, 2), (0.3, 1), (1, 2), (1, 3)], 3)
    rules = _every_rule(profile)
    audit.batch_sp_audit(rules, profile, 11)
    assert applied == [profile] * len(rules) and read
