"""Command-line frontend: eval, fixtures, audit, search, sweep.

Exit codes: 0 clean, 1 on a failed check or audit finding or exceeded bound,
2 on usage or parse errors. All commands are deterministic given their flags.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable

from .adversary import SearchConfig, bound_conformance, hill_climb
from .audit import group_sp_audit, sp_audit
from .fixtures import run_corpus
from .instances import ParseError, ValidationError, load_instance
from .mechanisms import _RULES, MechanismId, MechanismLike, as_mechanism_fn, mechanism_label, parse_mechanism
from .model import GroupedProfile, build_profile, scaled_in_range
from .objectives import ObjectiveSpec, parse_objective
from .oracle import optima, optimize, ratio_to, ratios_to

# Extension point used by tests to audit deliberately broken rules.
EXTRA_MECHANISMS: dict[str, Callable] = {}

_RESOLUTION_HELP = (
    "misreport grid size for plugin rules only; built-in rules are always audited on their complete threshold set"
)


def _resolve_mechanism(text: str) -> MechanismLike:
    if text in EXTRA_MECHANISMS:
        return EXTRA_MECHANISMS[text]
    return parse_mechanism(text)


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else f"{x:.12g}"


def _num(x: float):
    # JSON has no infinity literal; encode it as the string "inf".
    return "inf" if math.isinf(x) else x


def _normalized(profile: GroupedProfile) -> GroupedProfile:
    """Affine rescale of all locations onto [0, 1]; identity for a single point.

    It rescales `scaled_in_range` of the profile, whose span cannot overflow;
    scaling by a power of two changes no quotient below.
    """
    scaled, _ = scaled_in_range(profile)
    x1, xn = scaled.span
    if xn == x1:
        return profile
    scale = xn - x1
    raw = [((loc - x1) / scale, grp) for loc, grp in scaled.raw()]
    return build_profile(raw, profile.group_count)


def _cmd_eval(args: argparse.Namespace) -> int:
    doc = load_instance(args.instance)
    profile = _normalized(doc.profile) if args.normalize else doc.profile
    mechanism = _resolve_mechanism(args.mech)
    spec = parse_objective(args.obj)
    outcome = as_mechanism_fn(mechanism)(profile)
    report = ratio_to(profile, outcome, spec, optimize(profile, spec))
    joint = group_sp_audit(mechanism, profile, args.resolution)
    violations = len(sp_audit(mechanism, profile, args.resolution)) + len(joint)
    payload = {
        "instance": doc.name or Path(args.instance).stem,
        "mechanism": mechanism_label(mechanism),
        "objective": spec.label,
        "n": profile.n,
        "m": profile.group_count,
        "support": [[pt, p] for pt, p in outcome.support],
        "mechanism_value": _num(report.mechanism_value),
        "optimal_location": report.optimal.location,
        "optimal_value": _num(report.optimal.value),
        "ratio": _num(report.ratio),
        "audit": {"resolution": args.resolution, "violations": violations},
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"instance          {payload['instance']}  (n={profile.n}, m={profile.group_count})")
        print(f"mechanism         {payload['mechanism']}")
        print(f"objective         {spec.label}")
        support = ", ".join(f"{pt:.12g} w.p. {p:.12g}" for pt, p in outcome.support)
        print(f"outcome           {support}")
        print(f"mechanism value   {_fmt(report.mechanism_value)}")
        print(f"optimal           {_fmt(report.optimal.value)} at y={report.optimal.location:.12g}")
        print(f"ratio             {_fmt(report.ratio)}")
        print(f"audit violations  {violations} (resolution {args.resolution})")
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    results = run_corpus(args.filter)
    if args.json:
        print(
            json.dumps(
                [
                    {"fixture": r.fixture, "check": r.label, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            tail = f"  [{r.detail}]" if r.detail else ""
            print(f"{status}  {r.fixture:<34} {r.label}{tail}")
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} checks passed")
    if not results:
        print("no fixture checks matched", file=sys.stderr)
        return 1
    return 0 if all(r.passed for r in results) else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    doc = load_instance(args.instance)
    mechanism = _resolve_mechanism(args.mech)
    findings = [("agent", f) for f in sp_audit(mechanism, doc.profile, args.resolution)]
    findings += [("colocated set", f) for f in group_sp_audit(mechanism, doc.profile, args.resolution)]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "kind": kind,
                        "deviators": list(f.deviators),
                        "true_location": f.true_location,
                        "misreport": f.misreport,
                        "truthful_cost": f.truthful_cost,
                        "deviating_cost": f.deviating_cost,
                    }
                    for kind, f in findings
                ],
                indent=2,
            )
        )
    else:
        for kind, f in findings:
            print(
                f"VIOLATION ({kind}) agents {list(f.deviators)} at {f.true_location:.12g}: "
                f"reporting {f.misreport:.12g} cuts cost {_fmt(f.truthful_cost)} -> {_fmt(f.deviating_cost)}"
            )
        print(f"{len(findings)} violation(s) found")
    return 1 if findings else 0


def tight_family_profile(mechanism: MechanismLike, spec: ObjectiveSpec, n_hint: int) -> GroupedProfile | None:
    """Known worst-case family for a (mechanism, objective) pair, sized near n_hint."""
    tight = _RULES[mechanism.tag].tight if isinstance(mechanism, MechanismId) else {}
    build = tight.get(spec.kind)
    if build is None:
        return None
    return build(n_hint) if mechanism.param is None else build(n_hint, mechanism.param)


def _cmd_search(args: argparse.Namespace) -> int:
    mechanism = _resolve_mechanism(args.mech)
    spec = parse_objective(args.obj)
    if args.n is not None:
        n_range = (args.n, args.n)
    else:
        n_range = (args.n_min, args.n_max)
    config = SearchConfig(
        seed=args.seed,
        n_range=n_range,
        m_range=(args.m_min, args.m_max),
        iterations=args.iterations,
        perturbation_scale=args.perturbation,
        restarts=args.restarts,
    )
    seeds: tuple[GroupedProfile, ...] = ()
    if args.seed_family == "auto":
        family = tight_family_profile(mechanism, spec, n_range[1])
        (n_min, n_max), (m_min, m_max) = n_range, config.m_range
        if family is not None and n_min <= family.n <= n_max and m_min <= family.group_count <= m_max:
            seeds = (family,)
        elif family is not None:
            print(
                f"warning: the tight family has n={family.n}, m={family.group_count}, outside the searched "
                f"n {n_min}-{n_max}, m {m_min}-{m_max}; no restart starts from it",
                file=sys.stderr,
            )
    conformant = None
    if args.bound is not None:
        conformant, report = bound_conformance(mechanism, spec, args.bound, config, seeds)
    else:
        report = hill_climb(mechanism, spec, config, seeds)
    payload = {
        "mechanism": mechanism_label(mechanism),
        "objective": spec.label,
        "config": {
            "seed": config.seed,
            "n_range": list(config.n_range),
            "m_range": list(config.m_range),
            "iterations": config.iterations,
            "perturbation_scale": config.perturbation_scale,
            "restarts": config.restarts,
            "seed_family": args.seed_family,
        },
        "best_ratio": _num(report.best_ratio),
        "best_profile": {"groups": [list(locs) for locs in report.best_profile.group_locations]},
        "trace": [[step, value] for step, value in report.trace],
        "bound": args.bound,
        "conformant": conformant,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.trace:
        lines = "".join(f"{step} {_fmt(value)}\n" for step, value in report.trace)
        Path(args.trace).write_text(lines, encoding="utf-8")
    summary = f"best_ratio={_fmt(report.best_ratio)}"
    if args.bound is not None:
        summary += f" bound={_fmt(args.bound)} conformant={conformant}"
    print(summary)
    return 0 if conformant is not False else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    mechanisms = [_resolve_mechanism(tok) for tok in args.mech.split(",") if tok]
    objectives = [parse_objective(tok) for tok in args.obj.split(",") if tok]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        [
            "instance",
            "mechanism",
            "objective",
            "n",
            "m",
            "mechanism_value",
            "optimal_value",
            "optimal_location",
            "ratio",
        ]
    )
    rows = 0
    for path in sorted(Path(args.instance_dir).glob("*.json")):
        try:
            doc = load_instance(path)
        except (ParseError, ValidationError, OSError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        name = doc.name or path.stem
        results = None
        for mechanism in mechanisms:
            try:
                outcome = as_mechanism_fn(mechanism)(doc.profile)
            except (IndexError, ValueError) as exc:
                print(f"warning: skipping {mechanism_label(mechanism)} on {path}: {exc}", file=sys.stderr)
                continue
            if results is None:
                # Once, before the instance's first row: an optimum that raises prints
                # none of them, and an instance no rule applies to takes none.
                results = optima(doc.profile, objectives)
            for spec, report in zip(objectives, ratios_to(doc.profile, outcome, objectives, results)):
                writer.writerow(
                    [
                        name,
                        mechanism_label(mechanism),
                        spec.label,
                        doc.profile.n,
                        doc.profile.group_count,
                        _fmt(report.mechanism_value),
                        _fmt(report.optimal.value),
                        _fmt(report.optimal.location),
                        _fmt(report.ratio),
                    ]
                )
                rows += 1
    return 0 if rows else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first `main` call and reused by later ones in the process.

    Each subcommand's handler is bound when the parser is first built.
    """
    parser = argparse.ArgumentParser(
        prog="fairline",
        description="Group-fair facility placement on a line: evaluate, audit, and stress-test placement rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="run one mechanism and objective on one instance")
    p.add_argument("instance", help="instance JSON file (schema v1)")
    p.add_argument("--mech", required=True, help="mechanism label, e.g. mgdm or kldm:3")
    p.add_argument("--obj", required=True, help="objective label, e.g. mtgc or alt-b-average")
    p.add_argument("--resolution", type=int, default=101, help=_RESOLUTION_HELP)
    p.add_argument("--normalize", action="store_true", help="rescale locations onto [0, 1] first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("fixtures", help="reproduce the built-in annotated corpus")
    p.add_argument("--filter", default=None, help="substring match on fixture name or check label")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_fixtures)

    p = sub.add_parser("audit", help="strategyproofness audit of one mechanism on one instance")
    p.add_argument("instance")
    p.add_argument("--mech", required=True)
    p.add_argument("--resolution", type=int, default=101, help=_RESOLUTION_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("search", help="hill-climb for worst-case instances of a mechanism")
    p.add_argument("--mech", required=True)
    p.add_argument("--obj", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--n", type=int, default=None, help="fix the agent count (overrides --n-min/--n-max)")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--perturbation", type=float, default=0.15)
    p.add_argument("--bound", type=float, default=None, help="check conformance against a proven upper bound")
    p.add_argument("--seed-family", choices=("auto", "none"), default="auto",
                   help="seed one restart at the known tight family when recognized and inside the searched ranges")
    p.add_argument("--report", default=None, help="write the JSON report here instead of stdout")
    p.add_argument("--trace", default=None, help="write a two-column (iteration, best ratio) file")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("sweep", help="CSV cross-product over an instance directory")
    p.add_argument("instance_dir")
    p.add_argument("--mech", required=True, help="comma-separated mechanism labels")
    p.add_argument("--obj", required=True, help="comma-separated objective labels")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
