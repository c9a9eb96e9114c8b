"""Each audit finding is reported once by `fairline audit` and `fairline eval`."""

import json

import pytest

from fairline import cli

from conftest import mean_mechanism

# No two agents share a location, so every colocated set is a single agent.
SPREAD = '{"schema_version": 1, "groups": [[0, 0.3], [1]]}'
# The two agents at 1 share a location and can deviate jointly.
SHARED = '{"schema_version": 1, "groups": [[0], [1, 1]]}'


@pytest.fixture
def mean_rule(monkeypatch):
    monkeypatch.setitem(cli.EXTRA_MECHANISMS, "mean", mean_mechanism)


def write(tmp_path, text):
    path = tmp_path / "instance.json"
    path.write_text(text)
    return str(path)


def test_audit_reports_each_individual_finding_once(tmp_path, capsys, mean_rule):
    assert cli.main(["audit", write(tmp_path, SPREAD), "--mech", "mean"]) == 1
    out = capsys.readouterr().out
    assert "97 violation(s) found" in out
    assert "colocated set" not in out


def test_audit_json_lists_each_finding_once(tmp_path, capsys, mean_rule):
    assert cli.main(["audit", write(tmp_path, SPREAD), "--mech", "mean", "--json"]) == 1
    findings = json.loads(capsys.readouterr().out)
    assert len(findings) == 97
    assert {f["kind"] for f in findings} == {"agent"}
    keys = [(tuple(f["deviators"]), f["misreport"]) for f in findings]
    assert len(set(keys)) == len(keys)


def test_eval_counts_each_finding_once(tmp_path, capsys, mean_rule):
    argv = ["eval", write(tmp_path, SPREAD), "--mech", "mean", "--obj", "mtgc", "--json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["audit"]["violations"] == 97


def test_joint_findings_of_colocated_agents_are_kept(tmp_path, capsys, mean_rule):
    assert cli.main(["audit", write(tmp_path, SHARED), "--mech", "mean", "--json", "--resolution", "11"]) == 1
    findings = json.loads(capsys.readouterr().out)
    joint = [f for f in findings if f["kind"] == "colocated set"]
    assert joint
    assert all(f["deviators"] == [1, 2] for f in joint)
