"""Output checks, one function per workload, against the reference evaluator.

Each check takes the seed, the operation index and the output the workload
process reported, regenerates the operation's input, and returns a list of
problems (empty when the output is right). No check compares against a
stored copy of earlier output: each uses `reference` or a property the
method must have.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import reference as R
import workloads as W

# Relative tolerance on objective values; the sweep CSV prints 12 digits.
REL_TOL = 1e-9
# Points of the dense grid the sweep's optimum must not lose to by more than n*span/steps.
GRID_STEPS = 4096


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale))


def _mean_costs(locations: list[float], deviators: list[int], true_location: float, misreport: float):
    """Truthful and deviating cost of the deviators under the mean rule."""
    moved = list(locations)
    for i in deviators:
        moved[i] = misreport
    truthful = abs(R.mean_location(locations) - true_location)
    deviating = abs(R.mean_location(moved) - true_location)
    return truthful, deviating


def check_audit(seed: int, index: int, out: dict) -> list[str]:
    """Built-in rules: no finding. Mean rule: each finding a real strict gain, and the known one present."""
    raw, _ = W.audit_profile(seed, index)
    profile = [(float(x), int(g)) for x, g in out["profile"]]
    if sorted(profile) != sorted(raw):
        return ["the audited profile is not the generated one"]
    if profile != sorted(profile):
        return ["the audited profile is not sorted by (location, group)"]
    locations = [x for x, _ in profile]
    n = len(locations)
    labels = W.audit_rules(n) + ["mean"]
    if out["rules"] != labels:
        return [f"audited rules {out['rules']} instead of {labels}"]
    x1, xn = locations[0], locations[-1]
    eps = REL_TOL * max(abs(x1), abs(xn), xn - x1)
    problems = []
    for kind in ("individual", "joint"):
        for label, findings in zip(labels, out[kind]):
            if label != "mean":
                # Generalized-median rules and the two extreme-anchored
                # lotteries are strategyproof: any finding is false.
                if findings:
                    problems.append(f"{kind} audit reports {len(findings)} findings for strategyproof {label}")
                continue
            for deviators, true_location, misreport, truthful, deviating in findings:
                where = f"{kind} mean-rule finding {deviators} -> {misreport!r}"
                if not deviators or any(locations[i] != true_location for i in deviators):
                    problems.append(f"{where}: deviators are not at {true_location!r}")
                    continue
                if kind == "individual" and len(deviators) != 1:
                    problems.append(f"{where}: an individual finding names several agents")
                mine_t, mine_d = _mean_costs(locations, deviators, true_location, misreport)
                if not (abs(mine_t - truthful) <= eps and abs(mine_d - deviating) <= eps):
                    problems.append(f"{where}: reported costs {truthful!r} -> {deviating!r}, recomputed {mine_t!r} -> {mine_d!r}")
                elif not mine_d < mine_t:
                    problems.append(f"{where}: no strict gain ({mine_t!r} -> {mine_d!r})")
    if xn > x1:
        # The leftmost agent reporting the reflection of the rightmost about
        # itself moves the mean left by span/n without passing it.
        reflection = 2.0 * x1 - xn
        gain = (xn - x1) / n
        known = [
            f
            for f in out["individual"][labels.index("mean")]
            if f[0] == [0] and abs(f[2] - reflection) <= eps and abs((f[3] - f[4]) - gain) <= eps
        ]
        if not known:
            problems.append(f"no individual mean-rule finding for agent 0 reporting {reflection!r} (gain {gain!r})")
    return problems


def check_sweep(seed: int, index: int, out: dict) -> list[str]:
    """Every optimum exact and attained, every rule value and ratio right, every proven bound held."""
    groups = W.sweep_groups(seed, index)
    if out["exit_code"] != 0:
        return [f"sweep exited with {out['exit_code']}"]
    rows = list(csv.DictReader(io.StringIO(out["csv"])))
    expected = [(mech, obj) for mech in W.SWEEP_MECHS for obj in W.SWEEP_OBJS]
    if sorted((r["mechanism"], r["objective"]) for r in rows) != sorted(expected):
        return [f"sweep rows {[(r['mechanism'], r['objective']) for r in rows]} instead of {expected}"]
    everyone = [x for locs in groups for x in locs]
    n, span = len(everyone), max(everyone) - min(everyone)
    probe = np.concatenate([R.kinks(groups), np.linspace(min(everyone), max(everyone), GRID_STEPS)])
    problems = []
    optima: dict[str, float] = {}
    for obj in W.SWEEP_OBJS:
        row = next(r for r in rows if r["objective"] == obj)
        opt, where = float(row["optimal_value"]), float(row["optimal_location"])
        optima[obj] = opt
        at_location = float(R.values(groups, obj, [where])[0])
        if not _close(at_location, opt, opt):
            problems.append(f"{obj}: optimum {opt!r} re-evaluates to {at_location!r} at {where!r}")
        exact = R.optimum(groups, obj)
        if not _close(exact, opt, opt):
            problems.append(f"{obj}: optimum {opt!r}, reference optimum {exact!r}")
        probed = R.values(groups, obj, probe)
        if probed.min() < opt - REL_TOL * max(1.0, opt):
            problems.append(f"{obj}: point {probe[probed.argmin()]!r} evaluates to {probed.min()!r} < optimum {opt!r}")
        grid_best = float(probed[-GRID_STEPS:].min())
        if grid_best > opt + n * span / GRID_STEPS + REL_TOL * max(1.0, opt):
            problems.append(f"{obj}: grid best {grid_best!r} exceeds optimum {opt!r} by more than n*span/steps")
    for r in rows:
        mech, obj = r["mechanism"], r["objective"]
        pair = f"{mech}/{obj}"
        if (int(r["n"]), int(r["m"])) != (n, len(groups)) or r["instance"] != W.sweep_name(index):
            problems.append(f"{pair}: row describes {r['instance']} n={r['n']} m={r['m']}")
        if float(r["optimal_value"]) != optima[obj]:
            problems.append(f"{pair}: optimum {r['optimal_value']} differs from the other rules' {optima[obj]!r}")
        value, rho = float(r["mechanism_value"]), float(r["ratio"])
        mine = R.value(groups, obj, R.placement(groups, mech))
        if not _close(value, mine, mine):
            problems.append(f"{pair}: rule value {value!r}, reference {mine!r}")
        if not _close(rho, value / optima[obj], rho):
            problems.append(f"{pair}: ratio {rho!r} is not {value!r} / {optima[obj]!r}")
        if rho < 1.0 - REL_TOL:
            problems.append(f"{pair}: ratio {rho!r} below 1")
        bound = W.PROVEN_BOUNDS.get((mech, obj))
        if bound is not None and rho > bound + REL_TOL:
            problems.append(f"{pair}: ratio {rho!r} above the proven bound {bound}")
    return problems


def check_search(seed: int, index: int, out: dict) -> list[str]:
    """Each pair's best ratio within [family floor, proven bound] and reproduced by the reference."""
    pairs = out["pairs"]
    if len(pairs) != len(W.SEARCH_PAIRS):
        return [f"{len(pairs)} search results for {len(W.SEARCH_PAIRS)} pairs"]
    problems = []
    for (rule, obj), result in zip(W.SEARCH_PAIRS, pairs):
        pair = f"{rule}/{obj}"
        best, groups = result["best_ratio"], result["best_profile"]
        bound = W.PROVEN_BOUNDS[rule, obj]
        floor = W.family_floor(rule, obj)
        if not 1.0 - REL_TOL <= best <= bound + REL_TOL:
            problems.append(f"{pair}: best ratio {best!r} outside [1, {bound}]")
        if result["conformant"] is not True:
            problems.append(f"{pair}: search reports the bound {bound} exceeded")
        if best < floor - REL_TOL:
            problems.append(f"{pair}: best ratio {best!r} below the seeded family's {floor!r}")
        mine = R.ratio(groups, rule, obj)
        if not (math.isfinite(mine) and abs(mine - best) <= REL_TOL * best):
            problems.append(f"{pair}: best ratio {best!r}, reference on best_profile {mine!r}")
    return problems


CHECKS = {"audit": check_audit, "sweep": check_sweep, "search": check_search}
