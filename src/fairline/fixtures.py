"""Built-in instance corpus with expected-result annotations.

Each fixture is a schema v1 instance file whose `expected` entries pin either
a mechanism's outcome support or the (mechanism value, optimal value, optimal
location, ratio) tuple for one mechanism/objective pair. Running the corpus
reproduces every annotated number at tolerance 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .instances import parse_instance_document
from .mechanisms import parse_mechanism
from .model import GroupedProfile
from .objectives import parse_objective
from .oracle import optimize, ratio

# Absolute tolerance of every corpus check.
ABS_TOL = 1e-9


@dataclass(frozen=True)
class Fixture:
    name: str
    note: str
    profile: GroupedProfile
    checks: tuple[dict, ...]


@dataclass(frozen=True)
class CheckResult:
    fixture: str
    label: str
    passed: bool
    detail: str


def fixture_dir() -> Path:
    """Filesystem directory holding the packaged fixture files."""
    return Path(str(resources.files("fairline").joinpath("data", "fixtures")))


def load_fixtures() -> tuple[Fixture, ...]:
    fixtures = []
    for path in sorted(fixture_dir().glob("*.json")):
        doc = parse_instance_document(path.read_text(encoding="utf-8"))
        fixtures.append(Fixture(doc.name or path.stem, doc.note or "", doc.profile, doc.expected))
    return tuple(fixtures)


def _expected_number(value) -> float:
    if value == "inf":
        return math.inf
    return float(value)


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ABS_TOL


def _check_support(fixture: Fixture, chk: dict) -> tuple[bool, str]:
    outcome = parse_mechanism(chk["mechanism"]).apply(fixture.profile)
    expected = [(float(pt), float(p)) for pt, p in chk["support"]]
    got = list(outcome.support)
    if len(got) != len(expected):
        return False, f"support size {len(got)} != {len(expected)}"
    for (gp, gq), (ep, eq) in zip(got, sorted(expected)):
        if not (_close(gp, ep) and _close(gq, eq)):
            return False, f"support {got} != {expected}"
    return True, ""


def _check_values(fixture: Fixture, chk: dict) -> tuple[bool, str]:
    spec = parse_objective(chk["objective"])
    if "mechanism" in chk:
        report = ratio(fixture.profile, parse_mechanism(chk["mechanism"]), spec)
        actual = {
            "mechanism_value": report.mechanism_value,
            "optimal_value": report.optimal.value,
            "optimal_location": report.optimal.location,
            "ratio": report.ratio,
        }
    else:
        opt = optimize(fixture.profile, spec)
        actual = {"optimal_value": opt.value, "optimal_location": opt.location}
    for key, got in actual.items():
        if key not in chk:
            continue
        want = _expected_number(chk[key])
        if not _close(got, want):
            return False, f"{key}: expected {want!r}, got {got!r}"
    return True, ""


def run_fixture(fixture: Fixture) -> list[CheckResult]:
    """Evaluate every expected annotation of one fixture."""
    results = []
    for chk in fixture.checks:
        mech = chk.get("mechanism", "oracle")
        if "support" in chk:
            label = f"{mech}/support"
            passed, detail = _check_support(fixture, chk)
        else:
            label = f"{mech}/{chk['objective']}"
            passed, detail = _check_values(fixture, chk)
        results.append(CheckResult(fixture.name, label, passed, detail))
    return results


def run_corpus(name_filter: str | None = None) -> list[CheckResult]:
    """Run every fixture check, optionally filtered by substring.

    The filter matches the fixture name, the mechanism label, or the
    objective label of a check.
    """
    results = []
    for fixture in load_fixtures():
        for res in run_fixture(fixture):
            if name_filter and name_filter not in fixture.name and name_filter not in res.label:
                continue
            results.append(res)
    return results
