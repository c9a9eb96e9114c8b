"""`hill_climb` gives the same report, or raises the same error, for any number of lanes."""

import os
import threading
import time

import pytest

from fairline import SearchConfig, adversary, cli, hill_climb, parse_mechanism, parse_objective, random_profile
from fairline.model import FacilityOutcome

LANES = (1, 2, 3, 6)
PROVEN_PAIRS = (
    ("mgdm", "mtgc"),
    ("mdm", "magc"),
    ("mgdm", "magc"),
    ("nrm", "magc"),
    ("kldm:1", "iif1"),
    ("kldm:1", "iif2"),
)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def climb_in_lanes(monkeypatch, lanes, *args):
    """`hill_climb(*args)` with its restarts shared by `lanes` lanes; no child may outlive it."""
    monkeypatch.setattr(adversary, "_lanes", lambda restarts: lanes)
    try:
        return hill_climb(*args)
    finally:
        assert_no_child()


def outcome(report):
    return report.best_ratio, report.best_profile.raw(), report.trace


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pair", PROVEN_PAIRS, ids="-".join)
def test_proven_pairs_report_the_same_for_every_lane_count(monkeypatch, pair, seed):
    mechanism, spec = parse_mechanism(pair[0]), parse_objective(pair[1])
    family = (cli.tight_family_profile(mechanism, spec, 8),)
    config = SearchConfig(
        seed=seed, n_range=(2, 8), m_range=(1, 4), restarts=7, iterations=120, perturbation_scale=0.15
    )
    reports = [climb_in_lanes(monkeypatch, lanes, mechanism, spec, config, family) for lanes in LANES]
    assert [outcome(report) for report in reports] == [outcome(reports[0])] * len(LANES)


def test_lambda_rule_reports_the_same_for_every_lane_count(monkeypatch):
    rule = lambda profile: FacilityOutcome.at(max(profile.locations))  # noqa: E731
    config = SearchConfig(seed=3, n_range=(2, 6), m_range=(1, 3), restarts=5, iterations=100)
    spec = parse_objective("magc")
    reports = [climb_in_lanes(monkeypatch, lanes, rule, spec, config) for lanes in LANES]
    assert [outcome(report) for report in reports] == [outcome(reports[0])] * len(LANES)


@pytest.mark.parametrize("seed", [28, 53])
def test_raising_rule_raises_what_one_lane_raises(monkeypatch, seed):
    # kldm:5 raises on a restart whose start has fewer than 5 agents, naming
    # that n; a restart's moves keep its n.
    mechanism, spec = parse_mechanism("kldm:5"), parse_objective("mtgc")
    config = SearchConfig(seed=seed, n_range=(2, 8), m_range=(1, 2), restarts=8, iterations=20)
    failing = [r for r in range(config.restarts) if random_profile(config, r).n < 5]
    sizes = {r: random_profile(config, r).n for r in failing}
    # The first failing restart is in lane 1 for every lane count below, and
    # a later one in lane 0 fails with another n.
    assert failing[0] == 1 and 6 in failing and sizes[6] != sizes[1]

    with pytest.raises(IndexError) as serial:
        climb_in_lanes(monkeypatch, 1, mechanism, spec, config)
    assert str(serial.value) == f"k must lie in 1..{sizes[1]}, got 5"
    for lanes in LANES[1:]:
        with pytest.raises(IndexError) as raised:
            climb_in_lanes(monkeypatch, lanes, mechanism, spec, config)
        assert str(raised.value) == str(serial.value)


def test_a_dead_lane_costs_time_not_the_report(monkeypatch):
    mechanism, spec = parse_mechanism("mgdm"), parse_objective("magc")
    config = SearchConfig(seed=2, n_range=(2, 6), m_range=(1, 3), restarts=6, iterations=60)
    expected = climb_in_lanes(monkeypatch, 1, mechanism, spec, config)
    caller, climb = os.getpid(), adversary._climb

    def dying_in_children(fn, spec, config, start, r):
        if os.getpid() != caller and r == 3:
            os._exit(3)
        return climb(fn, spec, config, start, r)

    monkeypatch.setattr(adversary, "_climb", dying_in_children)
    for lanes in LANES[1:]:
        assert outcome(climb_in_lanes(monkeypatch, lanes, mechanism, spec, config)) == outcome(expected)


def test_an_interrupted_caller_leaves_no_child(monkeypatch):
    mechanism, spec = parse_mechanism("mgdm"), parse_objective("magc")
    config = SearchConfig(seed=2, n_range=(2, 6), m_range=(1, 3), restarts=4, iterations=10)
    caller = os.getpid()

    def stalled(fn, spec, config, start, r):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(adversary, "_climb", stalled)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        climb_in_lanes(monkeypatch, 4, mechanism, spec, config)
    assert time.monotonic() - began < 30


class TestLaneCount:
    def test_at_most_one_lane_per_restart_and_per_cpu(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for restarts in (1, 2, 6, 100):
            assert adversary._lanes(restarts) == min(restarts, cpus)

    def test_one_lane_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert adversary._lanes(6) == 1

    def test_one_lane_while_another_thread_runs(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert adversary._lanes(6) == 1
        finally:
            release.set()
            thread.join()
