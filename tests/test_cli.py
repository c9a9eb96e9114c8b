import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairline import ALT_OBJECTIVES, MAGC, MAIN_OBJECTIVES, MTGC, cli, families, oracle
from fairline.fixtures import Fixture, fixture_dir
from fairline.instances import load_instance, serialize_instance
from fairline.mechanisms import MechanismId

from conftest import mean_mechanism, schema_errors

TIGHT = fixture_dir() / "tight_largest_group_total.json"
PAIR = fixture_dir() / "singleton_pair.json"


def run_cli(argv):
    return cli.main(argv)


def fresh_python(*args):
    """A new interpreter run with `args`, importing `fairline` from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def load_schema(name):
    return json.loads((fixture_dir().parent / "schemas" / name).read_text())


class TestEval:
    def test_tight_fixture_numbers(self, capsys):
        code = run_cli(["eval", str(TIGHT), "--mech", "mgdm", "--obj", "mtgc", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mechanism_value"] == pytest.approx(2.0, abs=1e-9)
        assert payload["optimal_value"] == pytest.approx(2 / 3, abs=1e-9)
        assert payload["optimal_location"] == pytest.approx(2 / 3, abs=1e-9)
        assert payload["ratio"] == pytest.approx(3.0, abs=1e-9)
        assert payload["audit"]["violations"] == 0
        assert not schema_errors(payload, load_schema("run_report.schema.json"))

    def test_average_lottery_numbers(self, capsys):
        path = fixture_dir() / "single_group_center_mass_n10.json"
        code = run_cli(["eval", str(path), "--mech", "rm", "--obj", "magc", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mechanism_value"] == pytest.approx(0.3, abs=1e-9)
        assert payload["optimal_value"] == pytest.approx(0.1, abs=1e-9)
        assert payload["ratio"] == pytest.approx(3.0, abs=1e-9)

    def test_single_agent_ratio_one(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text('{"schema_version":1,"groups":[[3]]}')
        code = run_cli(["eval", str(path), "--mech", "nrm", "--obj", "iif1", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ratio"] == 1.0

    def test_normalize_rescales(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text('{"schema_version":1,"groups":[[10],[30]]}')
        code = run_cli(["eval", str(path), "--mech", "mdm", "--obj", "mtgc", "--json", "--normalize"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["support"] == [[0.0, 1.0]]
        assert payload["optimal_value"] == pytest.approx(0.5, abs=1e-9)

    def test_normalize_a_span_past_the_float_range(self, tmp_path, capsys):
        # The span, 3.4e308, overflows; the profile scaled by a power of two
        # normalizes exactly.
        path = tmp_path / "wide.json"
        path.write_text('{"schema_version":1,"groups":[[-1.7e308,0.0],[1.7e308]]}')
        assert cli._normalized(load_instance(path).profile).locations == (0.0, 0.5, 1.0)
        code = run_cli(["eval", str(path), "--mech", "mdm", "--obj", "mtgc", "--json", "--normalize"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["support"] == [[0.5, 1.0]]
        assert (payload["optimal_location"], payload["optimal_value"], payload["ratio"]) == (0.5, 0.5, 1.0)

    def test_human_readable_table(self, capsys):
        code = run_cli(["eval", str(TIGHT), "--mech", "mgdm", "--obj", "mtgc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mechanism value   2" in out
        assert "ratio" in out

    def test_rule_applied_once_to_the_truthful_profile(self, capsys, monkeypatch):
        truthful = load_instance(TIGHT).profile
        calls, reads = [], []
        original, path_reader = MechanismId.apply, MechanismId.path_reader

        def counted(self, profile):
            calls.append(profile == truthful)
            return original(self, profile)

        def counted_reader(self, profile):
            reader = path_reader(self, profile)

            def read(*args):
                reads.append(1)
                return reader(*args)

            return read

        monkeypatch.setattr(MechanismId, "apply", counted)
        monkeypatch.setattr(MechanismId, "path_reader", counted_reader)
        code = run_cli(["eval", str(TIGHT), "--mech", "mgdm", "--obj", "mtgc", "--resolution", "11"])
        assert code == 0
        assert "ratio             3" in capsys.readouterr().out
        # Once for the report and once for each audit's truthful baseline;
        # every deviation is read off its path, with no deviated profile.
        assert sum(calls) == 3
        assert len(calls) == 3
        assert len(reads) > 0

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version":2,"groups":[[1]]}')
        assert run_cli(["eval", str(path), "--mech", "mdm", "--obj", "mtgc"]) == 2

    def test_oversized_integer_location_exits_two(self, tmp_path, capsys):
        # A JSON integer too large for a float is refused like 1e400, not a traceback.
        path = tmp_path / "huge.json"
        path.write_text('{"schema_version":1,"groups":[[1' + "0" * 400 + ']]}')
        assert run_cli(["eval", str(path), "--mech", "mdm", "--obj", "mtgc"]) == 2
        assert capsys.readouterr().err.startswith("error: agent location must be finite")

    def test_audit_near_the_float_maximum(self, tmp_path, capsys):
        # The widened span's ends and some reflections pass the float range; the optimum does not.
        path = tmp_path / "near_max.json"
        path.write_text('{"schema_version":1,"groups":[[-6e307,6e307],[0.0]]}')
        assert run_cli(["eval", str(path), "--mech", "mdm", "--obj", "mtgc"]) == 0
        out = capsys.readouterr().out
        assert "optimal           1.2e+308 at y=-6e+307" in out
        assert "audit violations  0" in out

    def test_objective_past_the_float_range_exits_two(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text('{"schema_version":1,"groups":[[-1.7e308,0],[1.7e308]]}')
        assert run_cli(["eval", str(path), "--mech", "mdm", "--obj", "iif1"]) == 2
        assert capsys.readouterr().err.startswith("error: iif1 overflows the float range")

    def test_usage_error_exits_two(self):
        assert run_cli(["eval"]) == 2
        assert run_cli(["no-such-command"]) == 2


class TestFixtures:
    def test_fresh_corpus_passes(self, capsys):
        assert run_cli(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_filter_restricts_checks(self, capsys):
        assert run_cli(["fixtures", "--filter", "mtgc", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert results
        assert all("mtgc" in r["check"] or "mtgc" in r["fixture"] for r in results)

    def test_corrupted_annotation_fails(self, capsys, monkeypatch):
        tampered = Fixture(
            name="tampered",
            note="",
            profile=families.singleton_pair(),
            checks=({"mechanism": "mdm", "objective": "mtgc", "ratio": 3.0},),
        )
        monkeypatch.setattr("fairline.fixtures.load_fixtures", lambda: (tampered,))
        assert run_cli(["fixtures"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "tampered" in out

    def test_unmatched_filter_fails(self, capsys):
        assert run_cli(["fixtures", "--filter", "zzz-none"]) == 1


class TestAudit:
    def test_clean_mechanism_exits_zero(self, capsys):
        assert run_cli(["audit", str(TIGHT), "--mech", "mgdm"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_mean_plugin_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.EXTRA_MECHANISMS, "mean", mean_mechanism)
        assert run_cli(["audit", str(PAIR), "--mech", "mean", "--resolution", "11"]) == 1
        assert "VIOLATION" in capsys.readouterr().out


class TestSearch:
    BASE = [
        "search", "--mech", "mgdm", "--obj", "mtgc", "--bound", "3",
        "--seed", "7", "--restarts", "2", "--iterations", "40",
    ]

    def test_conformance_near_three(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli(self.BASE + ["--report", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["conformant"] is True
        assert payload["best_ratio"] >= 2.9
        assert payload["best_ratio"] <= 3.0 + 1e-9
        assert not schema_errors(payload, load_schema("search_report.schema.json"))
        assert "conformant=True" in capsys.readouterr().out

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(self.BASE + ["--report", str(a)])
        run_cli(self.BASE + ["--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_two_cluster_search_scales(self, tmp_path, capsys):
        report_path = tmp_path / "ldm.json"
        code = run_cli(
            [
                "search", "--mech", "ldm", "--obj", "mtgc", "--n", "16",
                "--seed", "3", "--restarts", "1", "--iterations", "30",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        assert json.loads(report_path.read_text())["best_ratio"] >= 7.0

    def test_trace_file_is_two_columns_and_monotone(self, tmp_path):
        trace_path = tmp_path / "trace.txt"
        run_cli(self.BASE + ["--trace", str(trace_path), "--report", str(tmp_path / "r.json")])
        rows = [line.split() for line in trace_path.read_text().splitlines()]
        assert rows and all(len(r) == 2 for r in rows)
        ratios = [float(r[1]) for r in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_default_group_range_reaches_m_max(self, tmp_path):
        report_path = tmp_path / "r.json"
        code = run_cli(
            [
                "search", "--mech", "mgdm", "--obj", "mtgc", "--seed", "1",
                "--restarts", "1", "--iterations", "5", "--report", str(report_path),
            ]
        )
        assert code == 0
        assert json.loads(report_path.read_text())["config"]["m_range"] == [1, 4]

    def test_family_outside_the_searched_ranges_is_not_seeded(self, tmp_path, capsys):
        # The mgdm-mtgc family has 4 agents in 2 groups, so n = 2 or m = 1 excludes it.
        for bounds in (["--n", "2"], ["--m-max", "1"]):
            report_path = tmp_path / "r.json"
            code = run_cli(
                ["search", "--mech", "mgdm", "--obj", "mtgc", "--seed", "1", "--restarts", "1",
                 "--iterations", "5", "--report", str(report_path), *bounds]
            )
            assert code == 0
            payload = json.loads(report_path.read_text())
            (n_min, n_max), (m_min, m_max) = payload["config"]["n_range"], payload["config"]["m_range"]
            groups = payload["best_profile"]["groups"]
            assert n_min <= sum(map(len, groups)) <= n_max and m_min <= len(groups) <= m_max
            assert payload["best_ratio"] < 3.0 - 1e-9
            assert "warning: the tight family has n=4, m=2" in capsys.readouterr().err

    def test_family_inside_the_searched_ranges_is_seeded_without_warning(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        code = run_cli(
            ["search", "--mech", "mgdm", "--obj", "mtgc", "--n", "4", "--m-max", "2", "--seed", "1",
             "--restarts", "1", "--iterations", "5", "--report", str(report_path)]
        )
        assert code == 0
        assert json.loads(report_path.read_text())["best_ratio"] >= 3.0 - 1e-9
        assert "warning" not in capsys.readouterr().err

    def test_single_agent_search_runs(self, tmp_path):
        code = run_cli(
            [
                "search", "--mech", "mdm", "--obj", "mtgc", "--n", "1", "--seed", "1",
                "--restarts", "1", "--iterations", "5", "--report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 0

    def test_fixed_group_search_seeds_a_family_with_that_group(self, tmp_path):
        report_path = tmp_path / "r.json"
        code = run_cli(
            [
                "search", "--mech", "mog:3", "--obj", "mtgc", "--m-min", "3", "--n-min", "3",
                "--seed", "1", "--restarts", "1", "--iterations", "5", "--report", str(report_path),
            ]
        )
        assert code == 0
        # The seeded family alone has ratio 5 for the rule pinned to group 3.
        assert json.loads(report_path.read_text())["best_ratio"] >= 5.0 - 1e-9

    def test_kth_agent_search_seeds_a_family_with_k_agents(self, tmp_path):
        code = run_cli(
            [
                "search", "--mech", "kldm:5", "--obj", "iif1", "--n", "5", "--seed", "1",
                "--restarts", "1", "--iterations", "5", "--report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_perturbation_exits_two(self, tmp_path, capsys, scale):
        report_path = tmp_path / "r.json"
        code = run_cli(self.BASE + ["--perturbation", scale, "--report", str(report_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: perturbation_scale must be finite and positive")
        assert not report_path.exists()

    def test_exceeded_bound_exits_one(self, tmp_path):
        code = run_cli(
            [
                "search", "--mech", "mgdm", "--obj", "mtgc", "--bound", "2.5",
                "--seed", "7", "--restarts", "1", "--iterations", "10",
                "--report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1


class TestSweep:
    def test_corpus_cross_product(self, capsys):
        code = run_cli(
            ["sweep", str(fixture_dir()), "--mech", "mdm,mgdm,nrm", "--obj", "mtgc,magc"]
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        header = list(rows[0].keys())
        assert header == [
            "instance", "mechanism", "objective", "n", "m",
            "mechanism_value", "optimal_value", "optimal_location", "ratio",
        ]
        worst = {}
        for row in rows:
            key = (row["mechanism"], row["objective"])
            value = float(row["ratio"])
            worst[key] = max(worst.get(key, 0.0), value)
        assert worst[("mgdm", "mtgc")] == pytest.approx(3.0, abs=1e-9)
        assert worst[("mgdm", "magc")] == pytest.approx(3.0, abs=1e-9)
        assert 2.9 <= worst[("mdm", "magc")] <= 3.0 + 1e-9
        assert 1.9 <= worst[("nrm", "magc")] <= 2.0 + 1e-9

    def test_each_optimum_computed_once(self, capsys, monkeypatch):
        # mtgc and magc search the same kinks, so each instance takes one
        # group sweep for both, and each optimum is selected once for all
        # three rules.
        selected, swept = [], []
        select, stats_along = oracle._select, oracle.stats_along

        def counted_select(profile, spec, *rest):
            selected.append(spec)
            return select(profile, spec, *rest)

        def counted_stats(profile, ys, specs):
            swept.append(tuple(specs))
            return stats_along(profile, ys, specs)

        monkeypatch.setattr(oracle, "_select", counted_select)
        monkeypatch.setattr(oracle, "stats_along", counted_stats)
        code = run_cli(
            ["sweep", str(fixture_dir()), "--mech", "mdm,mgdm,nrm", "--obj", "mtgc,magc"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 72
        assert len(selected) == 24
        assert swept == [(MTGC, MAGC)] * 12

    # sha256 of the CSV below, taken before objectives shared their group
    # sweeps: every built-in rule (mog:2 skips the two one-group instances)
    # against all ten objectives on the packaged corpus.
    CORPUS_DIGEST = "f62254806cdf602992ec9c7314ed5f7ffb469842ad4f5dceaf0651dd2577a8d1"

    def test_corpus_sweep_is_pinned(self, capsys):
        rules = "mdm,ldm,kldm:1,kldm:2,mgdm,rm,nrm,mogm,mog:1,mog:2"
        objectives = ",".join(spec.label for spec in MAIN_OBJECTIVES + ALT_OBJECTIVES)
        code = run_cli(["sweep", str(fixture_dir()), "--mech", rules, "--obj", objectives])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 1 + 10 * 10 * 12 - 2 * 10
        assert hashlib.sha256(out.encode()).hexdigest() == self.CORPUS_DIGEST

    def test_each_rule_applied_once_per_instance(self, capsys, monkeypatch):
        calls = []
        original = MechanismId.apply

        def counted(self, profile):
            calls.append(self.label)
            return original(self, profile)

        monkeypatch.setattr(MechanismId, "apply", counted)
        code = run_cli(
            ["sweep", str(fixture_dir()), "--mech", "mdm,mgdm,nrm,kldm:1", "--obj", "mtgc,magc,iif1,iif2"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 192
        assert len(calls) == 48

    def test_unreadable_instance_skipped_with_warning(self, tmp_path, capsys):
        (tmp_path / "good.json").write_text(serialize_instance(families.singleton_pair()))
        (tmp_path / "bad.json").write_text("{not json")
        code = run_cli(["sweep", str(tmp_path), "--mech", "mdm", "--obj", "mtgc"])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipping" in captured.err
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert len(rows) == 1

    def test_inapplicable_rule_skipped_with_warning(self, capsys):
        # mog:2 needs a second group, which two of the packaged instances lack.
        code = run_cli(["sweep", str(fixture_dir()), "--mech", "mdm,mog:2", "--obj", "mtgc"])
        captured = capsys.readouterr()
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        instances = sorted(p.stem for p in fixture_dir().glob("*.json"))
        assert len(instances) == 12
        assert sorted(r["instance"] for r in rows if r["mechanism"] == "mdm") == instances
        single_group = [name for name in instances if load_instance(fixture_dir() / f"{name}.json").profile.group_count == 1]
        assert single_group
        assert sorted(r["instance"] for r in rows if r["mechanism"] == "mog:2") == sorted(
            set(instances) - set(single_group)
        )
        warnings = captured.err.splitlines()
        assert len(warnings) == len(single_group)
        assert all(line.startswith("warning: skipping mog:2 on ") for line in warnings)

    def test_instance_whose_optimum_overflows_prints_no_rows(self, tmp_path, capsys):
        # b_overflow's mtgc optimum is finite, 1.7e308 at 0, and its iif1
        # optimum exceeds the float maximum: its optima are taken before its
        # first row, so it prints none.
        (tmp_path / "a_good.json").write_text('{"schema_version": 1, "groups": [[0.0], [1.0]]}')
        (tmp_path / "b_overflow.json").write_text('{"schema_version": 1, "groups": [[-1.7e308, 0.0], [1.7e308]]}')
        code = run_cli(["sweep", str(tmp_path), "--mech", "mdm", "--obj", "mtgc,iif1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: iif1 overflows")
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(r["instance"], r["objective"]) for r in rows] == [("a_good", "mtgc"), ("a_good", "iif1")]

    def test_empty_directory_exits_one(self, tmp_path):
        assert run_cli(["sweep", str(tmp_path), "--mech", "mdm", "--obj", "mtgc"]) == 1

    def test_numbers_use_twelve_significant_digits(self, capsys):
        run_cli(["sweep", str(fixture_dir()), "--mech", "mdm", "--obj", "magc"])
        out = capsys.readouterr().out
        row = next(r for r in csv.DictReader(io.StringIO(out)) if r["instance"] == "tight_average_family_k50")
        assert row["ratio"] == f"{300 / 101:.12g}"
        assert float(row["ratio"]) == pytest.approx(300 / 101, rel=1e-11)


class TestParser:
    def test_import_builds_no_parser(self):
        out = fresh_python("-c", "import fairline.cli as cli; print(cli._build_parser.cache_info().currsize)")
        assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr

    def test_one_parser_per_process(self, capsys):
        run_cli(["eval", str(PAIR), "--mech", "mdm", "--obj", "mtgc"])
        run_cli(["audit", str(PAIR), "--mech", "rm"])
        capsys.readouterr()
        assert cli._build_parser.cache_info().currsize == 1
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "calls",
        [
            [
                ["eval", str(TIGHT), "--mech", "mgdm", "--obj", "mtgc", "--json", "--normalize"],
                ["eval", str(TIGHT), "--mech", "mgdm", "--obj", "mtgc"],
            ],
            [
                ["search", "--mech", "mgdm", "--obj", "mtgc", "--n", "3", "--bound", "3", "--seed-family", "none"],
                ["search", "--mech", "mgdm", "--obj", "mtgc"],
            ],
            [
                ["sweep", str(fixture_dir()), "--mech", "mdm", "--obj", "mtgc,alt-b-max"],
                ["fixtures", "--filter", "no fixture or check has this name"],
                ["sweep", str(fixture_dir()), "--mech", "nrm", "--obj", "iif1"],
            ],
        ],
    )
    def test_repeated_calls_print_what_fresh_processes_print(self, capsys, calls):
        # The parser is shared by every call in a process; no flag or
        # default of one call may reach the next.
        for argv in calls:
            code = run_cli(argv)
            captured = capsys.readouterr()
            fresh = fresh_python("-m", "fairline.cli", *argv)
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
