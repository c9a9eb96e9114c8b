"""`ratios_to` scores a rule on every objective from one statistics pass per support point.

Each of its reports must be `ratio_to`'s for that objective alone, by
`repr`, and it must fail as the objectives taken one at a time fail.
"""

from __future__ import annotations

import pytest

from fairline import build_profile, optimize
from fairline.mechanisms import _RULES, as_mechanism_fn, parse_mechanism
from fairline.oracle import ObjectiveOverflowError, optima, ratio_to, ratios_to
from test_swept_oracle import SPECS, _optimize_profiles

# One of every built-in rule, lotteries and group-median rules included.
RULES = [parse_mechanism(f"{tag}:1" if rule.takes_param else tag) for tag, rule in _RULES.items()]
# Its mtgc optimum exceeds the float maximum, so `optima` raises here however
# the tolerances behind the corpus's own raising rows change. It stays out of
# `_optimize_profiles()`, whose rows `OPTIMIZE_DIGEST` pins.
PAST_THE_FLOAT_RANGE = build_profile([(-1.7e308, 1), (1.7e308, 1)], 1)


def _key(report):
    # The optimum is the same object on both sides; `repr` tells -0.0 from 0.0 and keeps NaN equal to itself.
    return repr(report.mechanism_value), repr(report.ratio), id(report.optimal)


def test_shared_scoring_matches_one_objective_at_a_time():
    scored = failed = 0
    raised = []
    for profile in [*_optimize_profiles(), PAST_THE_FLOAT_RANGE]:
        outcomes = [as_mechanism_fn(rule)(profile) for rule in RULES]
        try:
            shared = optima(profile, SPECS)
        except ValueError as exc:
            # `optima` raises what the first objective to fail raises alone.
            with pytest.raises(type(exc)) as alone:
                [ratio_to(profile, outcomes[0], spec, optimize(profile, spec)) for spec in SPECS]
            assert str(alone.value) == str(exc), profile.raw()
            failed += 1
            raised.append((profile, type(exc)))
            continue
        for rule, outcome in zip(RULES, outcomes):
            want = [_key(ratio_to(profile, outcome, spec, optimal)) for spec, optimal in zip(SPECS, shared)]
            got = [_key(report) for report in ratios_to(profile, outcome, SPECS, shared)]
            assert got == want, (rule, profile.raw())
            scored += 1
    assert scored > 20_000 and failed > 0
    assert raised[-1] == (PAST_THE_FLOAT_RANGE, ObjectiveOverflowError)
