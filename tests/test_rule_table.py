"""The known tight family `search --seed-family auto` seeds with, per rule and objective."""

import pytest

from fairline import MTGC, build_profile, cli, families
from fairline.mechanisms import parse_mechanism
from fairline.objectives import ALT_OBJECTIVES, MAIN_OBJECTIVES
from fairline.oracle import ratio

from conftest import mean_mechanism

OBJECTIVES = MAIN_OBJECTIVES + ALT_OBJECTIVES
RULES = ("mdm", "ldm", "kldm:1", "kldm:5", "mgdm", "rm", "nrm", "mogm", "mog:1", "mog:2", "mog:3")
N_HINTS = (1, 2, 3, 8, 9)

# (rule tag or label, objective kind) -> the family built for a hint of n agents.
EXPECTED = {
    ("mdm", "mtgc"): lambda n: families.group_median_family(max(2, n // 2)),
    ("mdm", "magc"): lambda n: families.tight_average_family(max(2, n // 2)),
    ("kldm", "iif1"): lambda n: families.balanced_split_pair(max(1, (n - 2) // 2)),
    ("kldm", "iif2"): lambda n: families.balanced_split_pair(max(1, (n - 2) // 2)),
    # Never fewer than k agents.
    ("kldm:5", "iif1"): lambda n: families.balanced_split_pair(max(2, (n - 2) // 2)),
    ("kldm:5", "iif2"): lambda n: families.balanced_split_pair(max(2, (n - 2) // 2)),
    ("mgdm", "mtgc"): lambda n: families.tight_largest_group_total(),
    ("mgdm", "magc"): lambda n: families.tight_average_family(max(2, n // 2)),
    ("rm", "mtgc"): lambda n: families.three_group_center_mass(max(3, n)),
    ("rm", "magc"): lambda n: families.single_group_center_mass(max(3, n)),
    ("nrm", "mtgc"): lambda n: families.three_group_center_mass(max(3, n)),
    ("nrm", "magc"): lambda n: families.tight_average_family(max(2, n // 2)),
    ("mogm", "mtgc"): lambda n: families.group_median_family(max(2, n // 2)),
    # The fixed-group rule's family has the rule's own group split between 0 and 0.8.
    ("mog:1", "mtgc"): lambda n: families.fixed_group_choice(2, 4),
    ("mog:2", "mtgc"): lambda n: build_profile([(0.0, 2), (0.8, 2)] + [(1.0, 1)] * 4, 2),
    ("mog:3", "mtgc"): lambda n: build_profile([(0.0, 3), (0.8, 3)] + [(1.0, 1)] * 4 + [(1.0, 2)], 3),
}
# The leftmost rule's family is tight for every objective.
EXPECTED.update(
    {("ldm", spec.kind): lambda n: families.single_group_two_clusters(max(2, n)) for spec in OBJECTIVES}
)


@pytest.mark.parametrize("label", RULES)
@pytest.mark.parametrize("spec", OBJECTIVES, ids=lambda spec: spec.label)
def test_tight_family_per_rule_and_objective(label, spec):
    mechanism = parse_mechanism(label)
    build = EXPECTED.get((label, spec.kind), EXPECTED.get((mechanism.tag, spec.kind)))
    for n_hint in N_HINTS:
        got = cli.tight_family_profile(mechanism, spec, n_hint)
        if build is None:
            assert got is None, n_hint
        else:
            want = build(n_hint)
            assert got.raw() == want.raw(), n_hint
            assert got.group_count == want.group_count, n_hint


@pytest.mark.parametrize("label", ["mog:1", "mog:2", "mog:3"])
def test_fixed_group_family_is_tight_for_its_group(label):
    mechanism = parse_mechanism(label)
    assert ratio(cli.tight_family_profile(mechanism, MTGC, 8), mechanism, MTGC).ratio == pytest.approx(5.0)


@pytest.mark.parametrize("spec", OBJECTIVES, ids=lambda spec: spec.label)
def test_bare_callable_has_no_family(spec):
    assert cli.tight_family_profile(mean_mechanism, spec, 8) is None
