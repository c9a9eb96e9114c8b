import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from fairline import (
    FacilityOutcome,
    MechanismId,
    build_profile,
    kldm,
    ldm,
    mdm,
    median_index,
    median_of_group,
    median_of_group_medians,
    mgdm,
    nrm,
    parse_mechanism,
    rm,
)
from fairline.mechanisms import _three_point
from fairline.families import (
    balanced_split_pair,
    group_median_family,
    single_group_two_clusters,
    three_group_center_mass,
    tight_average_family,
    tight_largest_group_total,
)

from conftest import grouped_profiles

THREE_POINT = ((0.0, 0.25), (0.5, 0.5), (1.0, 0.25))


class TestMedianIndex:
    @pytest.mark.parametrize("count,expected", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3)])
    def test_left_median_position(self, count, expected):
        assert median_index(count) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            median_index(0)


class TestDeterministicRules:
    def test_mdm_on_group_median_family(self):
        assert mdm(group_median_family(3)).point == 0.0

    def test_mdm_two_agents_takes_left(self):
        assert mdm(build_profile([(0, 1), (1, 1)], 1)).point == 0.0

    def test_mdm_on_average_family(self):
        assert mdm(tight_average_family(2)).point == 0.0

    def test_ldm(self):
        assert ldm(single_group_two_clusters(10)).point == 0.0
        assert ldm(build_profile([(7, 1)], 1)).point == 7.0
        assert ldm(build_profile([(-3, 1), (0, 1), (5, 1)], 1)).point == -3.0

    def test_kldm_on_balanced_split(self):
        assert kldm(balanced_split_pair(2), 3).point == 0.0

    def test_kldm_bounds(self):
        p = build_profile([(0, 1), (1, 1)], 1)
        with pytest.raises(IndexError):
            kldm(p, 0)
        with pytest.raises(IndexError):
            kldm(p, 3)

    def test_mgdm_tight_profile(self):
        assert mgdm(tight_largest_group_total()).point == 0.0

    def test_mgdm_unique_largest(self):
        p = build_profile([(0, 1), (5, 1), (9, 1), (2, 2), (3, 2)], 2)
        assert mgdm(p).point == 5.0

    def test_mgdm_all_singletons_takes_smallest_index(self):
        p = build_profile([(2, 1), (4, 2), (8, 3)], 3)
        assert mgdm(p).point == 2.0

    def test_median_of_group_medians(self):
        assert median_of_group_medians(group_median_family(3)).point == 0.0
        two = build_profile([(2, 1), (6, 2)], 2)
        assert median_of_group_medians(two).point == 2.0
        one = build_profile([(1, 1), (4, 1), (9, 1)], 1)
        assert median_of_group_medians(one).point == 4.0

    def test_median_of_group(self):
        p = build_profile([(4, 1)], 1)
        assert median_of_group(p, 1).point == 4.0
        with pytest.raises(IndexError):
            median_of_group(p, 2)

    @given(grouped_profiles())
    def test_median_of_argmax_group_matches_mgdm(self, profile):
        sizes = profile.group_sizes
        if sizes.count(max(sizes)) != 1:
            return
        j = sizes.index(max(sizes)) + 1
        assert median_of_group(profile, j) == mgdm(profile)


class TestRandomizedRules:
    def test_rm_unit_span(self):
        assert rm(build_profile([(0, 1), (1, 1)], 1)).support == THREE_POINT

    def test_rm_collapses_when_colocated(self):
        p = build_profile([(3, 1), (3, 1)], 1)
        assert rm(p).support == ((3.0, 1.0),)

    def test_rm_symmetric(self):
        p = build_profile([(-1, 1), (1, 1)], 1)
        assert rm(p).support == ((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25))

    def test_nrm_on_average_family(self):
        assert nrm(tight_average_family(2)).support == THREE_POINT

    def test_nrm_single_group_is_deterministic(self):
        p = build_profile([(0, 1), (2, 1), (5, 1)], 1)
        assert nrm(p).support == ((2.0, 1.0),)

    def test_nrm_on_center_mass(self):
        assert nrm(three_group_center_mass(10)).support == THREE_POINT

    @pytest.mark.parametrize(
        "left, right",
        [
            (0.0, 1.0),
            (-0.3, 0.7),
            (1e-300, 2e-300),
            (1.0, math.nextafter(1.0, math.inf)),  # the midpoint rounds onto an end point
            (-5e-324, 0.0),
            (-1.7e308, 1.7e308),
        ],
    )
    def test_three_point_lottery_equals_merged_lottery(self, left, right):
        want = FacilityOutcome.lottery(((left, 0.25), (right, 0.25), ((left + right) / 2.0, 0.5)))
        got = _three_point(left, right)
        assert [(pt.hex(), p.hex()) for pt, p in got] == [(pt.hex(), p.hex()) for pt, p in want.support]

    def test_three_point_support_is_a_valid_ascending_lottery(self):
        # rm and nrm validate it; the ascending order is the builder's own to keep.
        rng = random.Random(4)
        for left, right in [(0.0, 1.0), (-0.0, 5e-324 * 4), (-1.7e308, 1.7e308)] + [
            sorted((rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6))) for _ in range(100)
        ]:
            support = _three_point(left, right)
            assert FacilityOutcome(support).support == support
            assert all(a < b for (a, _), (b, _) in zip(support, support[1:])), (left, right)

    @pytest.mark.parametrize("pairs", [[(1e308, 1), (1.7e308, 2)], [(-1.7e308, 1), (-1e308, 2)]])
    def test_rm_nrm_finite_when_the_ends_sum_overflows(self, pairs):
        # The ends' sum overflows; the sum of their halves, ±1.35e308, does not.
        profile = build_profile(pairs, 2)
        left, right = profile.span
        mid = math.copysign(1.35e308, left)
        for rule in (rm, nrm):
            assert rule(profile).support == ((left, 0.25), (mid, 0.5), (right, 0.25))


class TestMechanismId:
    def test_parse_round_trip(self):
        for label in ("mdm", "ldm", "mgdm", "rm", "nrm", "mogm", "kldm:3", "mog:2"):
            assert parse_mechanism(label).label == label

    def test_parse_aliases_and_case(self):
        assert parse_mechanism("MDM").tag == "mdm"
        assert parse_mechanism("median-of-group-medians").tag == "mogm"
        assert parse_mechanism("median_of_group:2") == MechanismId("mog", 2)
        assert parse_mechanism("kldm :3") == parse_mechanism("kldm: 3") == MechanismId("kldm", 3)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_mechanism("kldm")
        with pytest.raises(ValueError):
            parse_mechanism("kldm:zero")
        with pytest.raises(ValueError):
            parse_mechanism("nope")
        with pytest.raises(ValueError):
            MechanismId("mdm", 3)

    def test_apply_dispatch(self):
        p = tight_largest_group_total()
        assert parse_mechanism("mgdm").apply(p) == mgdm(p)
        assert parse_mechanism("kldm:1").apply(p) == ldm(p)

    def test_identity_is_tag_and_param(self):
        mech = MechanismId("kldm", 3)
        assert [f.name for f in dataclasses.fields(mech)] == ["tag", "param"]
        assert dataclasses.asdict(mech) == {"tag": "kldm", "param": 3}
        assert mech == MechanismId("kldm", 3) and mech != MechanismId("kldm", 2) and mech != MechanismId("mog", 3)
        assert hash(mech) == hash(MechanismId("kldm", 3)) == hash(("kldm", 3))
        assert repr(mech) == "MechanismId(tag='kldm', param=3)"
        assert repr(MechanismId("mdm")) == "MechanismId(tag='mdm', param=None)"

    def test_replace_and_pickle_keep_the_rule(self):
        p = tight_largest_group_total()
        assert dataclasses.replace(MechanismId("kldm", 3), param=1).apply(p) == ldm(p)
        assert dataclasses.replace(MechanismId("mdm"), tag="mgdm").apply(p) == mgdm(p)
        with pytest.raises(ValueError):
            dataclasses.replace(MechanismId("mdm"), tag="nope")
        for mech in [*ALL_RULES, MechanismId("mog", 2), MechanismId("kldm", 2)]:
            loaded = pickle.loads(pickle.dumps(mech))
            assert loaded == mech and hash(loaded) == hash(mech) and repr(loaded) == repr(mech)
            assert loaded.apply(p) == mech.apply(p)


ALL_RULES = [
    parse_mechanism("mdm"),
    parse_mechanism("ldm"),
    parse_mechanism("kldm:1"),
    parse_mechanism("mgdm"),
    parse_mechanism("rm"),
    parse_mechanism("nrm"),
    parse_mechanism("mogm"),
    parse_mechanism("mog:1"),
]


@given(grouped_profiles())
def test_outputs_stay_on_agent_span(profile):
    x1, xn = profile.span
    for mech in ALL_RULES:
        for pt, _ in mech.apply(profile).support:
            assert x1 - 1e-12 <= pt <= xn + 1e-12


@given(grouped_profiles(), st.randoms(use_true_random=False))
def test_input_order_is_irrelevant(profile, rng):
    pairs = profile.raw()
    rng.shuffle(pairs)
    shuffled = build_profile(pairs, profile.group_count)
    for mech in ALL_RULES:
        assert mech.apply(shuffled) == mech.apply(profile)


@given(grouped_profiles(), st.floats(-3, 3, allow_nan=False))
def test_translation_equivariance(profile, delta):
    shifted = build_profile([(loc + delta, g) for loc, g in profile.raw()], profile.group_count)
    for mech in ALL_RULES:
        base = mech.apply(profile).support
        moved = mech.apply(shifted).support
        assert len(base) == len(moved)
        for (pt, p), (qt, q) in zip(base, moved):
            assert qt == pytest.approx(pt + delta, abs=1e-9)
            assert q == pytest.approx(p, abs=1e-12)


@given(grouped_profiles(), st.floats(0.1, 10, allow_nan=False))
def test_scale_equivariance(profile, scale):
    scaled = build_profile([(loc * scale, g) for loc, g in profile.raw()], profile.group_count)
    for mech in ALL_RULES:
        base = mech.apply(profile).support
        moved = mech.apply(scaled).support
        for (pt, p), (qt, q) in zip(base, moved):
            assert qt == pytest.approx(pt * scale, rel=1e-9, abs=1e-9)
            assert q == pytest.approx(p, abs=1e-12)


@given(grouped_profiles())
def test_group_blind_rules_ignore_labels(profile):
    merged = build_profile([(loc, 1) for loc, _ in profile.raw()], 1)
    k = median_index(profile.n)
    for mech in (parse_mechanism("mdm"), parse_mechanism("ldm"), MechanismId("kldm", k), parse_mechanism("rm")):
        assert mech.apply(merged) == mech.apply(profile)


@given(grouped_profiles())
def test_kldm_specializes_to_ldm_and_mdm(profile):
    assert kldm(profile, 1) == ldm(profile)
    assert kldm(profile, median_index(profile.n)) == mdm(profile)
