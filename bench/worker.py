"""One workload in one single-threaded process: set up, run the fixed operation list, report.

`bench/run.py` starts this script from the repository root:

    python3 bench/worker.py --workload audit --seed 1 --seconds 20 --trace 0 [--setup-only]

It imports `fairline` from the checkout's `src/`, builds the workload's
inputs, prints `ready`, then runs every operation once, writing one JSON
line per operation with its output (or the error it raised). The last line
is one JSON object: the wall time of every step of every operation, or of
every whole operation in a traced run (handing an output over between
operations is not timed); in a timed run, the speed kernel's time before
the first step and after each step (`speed.py`); peak resident memory; and,
with `--trace 1`, the per-layer metrics. It checks nothing itself; the
parent does, so that the checks' memory and time stay out of this process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workloads as W  # noqa: E402


def _import_fairline():
    """The `fairline` package, refusing any copy but the checkout's own."""
    import fairline

    expected = ROOT / "src" / "fairline"
    if Path(fairline.__file__).resolve().parent != expected:
        raise SystemExit(f"imported fairline from {fairline.__file__}, not from {expected}")
    return fairline


def peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MiB.

    Read from /proc rather than getrusage: after a vfork and exec, Linux's
    ru_maxrss also counts the parent's peak, which would charge the checker's
    memory to the workload.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def mean_rule(profile):
    """Non-strategyproof control: the facility at the average report."""
    from fairline.model import FacilityOutcome

    return FacilityOutcome.at(sum(profile.locations) / profile.n)


def _finding(f) -> list:
    return [list(f.deviators), f.true_location, f.misreport, f.truthful_cost, f.deviating_cost]


class Workload:
    """A workload's operation `i` is a list of steps, each a call into `fairline`."""

    def steps(self, i: int) -> list:
        raise NotImplementedError

    def run(self, i: int) -> list:
        return [step() for step in self.steps(i)]


class AuditWorkload(Workload):
    def __init__(self, seed: int, count: int, workdir: Path) -> None:
        fl = _import_fairline()
        self.audit = fl.audit
        self.cases = []
        for i in range(count):
            raw, m = W.audit_profile(seed, i)
            profile = fl.build_profile(raw, m)
            labels = W.audit_rules(profile.n)
            mechs = [fl.parse_mechanism(label) for label in labels] + [mean_rule]
            self.cases.append((profile, labels + ["mean"], mechs))

    def steps(self, i: int) -> list:
        profile, _, mechs = self.cases[i]

        def both():
            individual = self.audit.batch_sp_audit(mechs, profile, W.AUDIT_RESOLUTION)
            joint = self.audit.batch_group_sp_audit(mechs, profile, W.AUDIT_RESOLUTION)
            return individual, joint

        return [both]

    def output(self, i: int, results: list) -> dict:
        profile, labels, _ = self.cases[i]
        [(individual, joint)] = results
        return {
            "profile": profile.raw(),
            "rules": labels,
            "individual": [[_finding(f) for f in found] for found in individual],
            "joint": [[_finding(f) for f in found] for found in joint],
        }


class SweepWorkload(Workload):
    def __init__(self, seed: int, count: int, workdir: Path) -> None:
        _import_fairline()
        from fairline import cli

        self.cli = cli
        self.dirs = []
        for i in range(count):
            name = W.sweep_name(i)
            target = workdir / name
            target.mkdir()
            doc = {"schema_version": 1, "name": name, "groups": W.sweep_groups(seed, i)}
            (target / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
            self.dirs.append(str(target))
        self.argv_tail = ["--mech", ",".join(W.SWEEP_MECHS), "--obj", ",".join(W.SWEEP_OBJS)]

    def steps(self, i: int) -> list:
        def sweep():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["sweep", self.dirs[i], *self.argv_tail])
            return code, buf.getvalue()

        return [sweep]

    def output(self, i: int, results: list) -> dict:
        [(code, text)] = results
        return {"exit_code": code, "csv": text}


class SearchWorkload(Workload):
    def __init__(self, seed: int, count: int, workdir: Path) -> None:
        fl = _import_fairline()
        from fairline import cli

        self.adversary = fl.adversary
        self.pairs = []
        for rule, objective in W.SEARCH_PAIRS:
            mech = fl.parse_mechanism(rule)
            spec = fl.parse_objective(objective)
            family = cli.tight_family_profile(mech, spec, W.SEARCH_FAMILY_N_HINT)
            self.pairs.append((mech, spec, W.PROVEN_BOUNDS[rule, objective], family))
        self.configs = [
            [fl.SearchConfig(seed=W.search_seed(seed, i, p), **W.SEARCH_CONFIG) for p in range(len(self.pairs))]
            for i in range(count)
        ]

    def steps(self, i: int) -> list:
        # One step per pair, so that the machine's speed is sampled between them.
        return [
            functools.partial(self.adversary.bound_conformance, mech, spec, bound, config, (family,))
            for (mech, spec, bound, family), config in zip(self.pairs, self.configs[i])
        ]

    def output(self, i: int, result) -> dict:
        return {
            "pairs": [
                {
                    "conformant": conformant,
                    "best_ratio": report.best_ratio,
                    "best_profile": [list(locs) for locs in report.best_profile.group_locations],
                }
                for conformant, report in result
            ]
        }


WORKLOAD_CLASSES = {"audit": AuditWorkload, "sweep": SweepWorkload, "search": SearchWorkload}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit once the inputs are ready")
    args = parser.parse_args(argv)

    count = W.op_count(args.workload, args.seconds)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, count, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            from tracing import OPERATION, Tracer

            tracer = Tracer()
            tracer.install()
            traced_run = tracer.span(OPERATION, workload.run)

        # Timed runs sample the machine's speed before the first step and
        # after every step: steps_ms[k] lies between speed_ms[k] and speed_ms[k + 1].
        steps_ms, step_op, failed = [], [], []
        speed_ms = [] if tracer is not None else [speed.sample()]
        clock = time.perf_counter
        for i in range(count):
            results = []
            try:
                if tracer is None:
                    for step in workload.steps(i):
                        t0 = clock()
                        try:
                            results.append(step())
                        finally:
                            steps_ms.append((clock() - t0) * 1e3)
                            step_op.append(i)
                            speed_ms.append(speed.sample())
                else:
                    tracer.current_op = i
                    t0 = clock()
                    results = traced_run(i)
                    steps_ms.append((clock() - t0) * 1e3)
                    step_op.append(i)
                error = None
            except Exception:  # a failed operation is counted, and the run goes on
                results, error = None, traceback.format_exc()
                failed.append(i)
            # Each output leaves the process before the next operation, so
            # peak memory is that of one operation, whatever the list length.
            output = None if results is None else workload.output(i, results)
            sys.stdout.write(json.dumps({"error": error, "output": output}) + "\n")
            del results, output
        summary = {
            "operations": count,
            "steps_ms": steps_ms,
            "step_op": step_op,
            "speed_ms": speed_ms,
            "failed_ops": failed,
            "peak_rss_mb": peak_rss_mb(),
        }
        if tracer is not None:
            tracer.uninstall()
            summary["layers"] = tracer.metrics(count)
            tracer.save(OUT / f"trace_{args.workload}.npz")
        sys.stdout.write(json.dumps(summary) + "\n")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
