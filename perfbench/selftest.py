"""Self-test of the benchmark: every workload once, at minimal length.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

Checks that seed 0 builds exactly the built-in problems, then runs each
workload untraced and traced through run.py. It asserts that no op failed
(failed_frac = 0) and that the traced counts reconcile:
linalg.solves = stepper.picard_iters + 2 per run, and problems.splits =
iterates (+ steps when theta < 1). Prints setup_s, solve_s, peak_rss_mb and
failed_frac for every workload. Exits 1 on any failure.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from worker import ROOT  # noqa: E402


def seed0_is_builtin():
    """Seed 0, op 0 reproduces builtin_tp1 / builtin_grayscott field by field."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from rdgalerkin.problems import builtin_grayscott, builtin_tp1

    bad = []
    for workload, builtin in (("tp1-trapezoid", builtin_tp1()), ("gs-study", builtin_grayscott())):
        ours = wl.build_problem(wl.problem_doc(workload, 0, 0))
        x = np.linspace(builtin.lower, builtin.upper, 101)
        for name, value in vars(builtin).items():
            if callable(value) and not hasattr(value, "alpha"):
                same = np.array_equal(value(x), getattr(ours, name)(x))
            else:
                same = value == getattr(ours, name)
            if not same:
                bad.append(f"{workload}: {name} differs from the built-in problem")
    return bad


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        return None, [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    report = json.loads((HERE / "out" / f"result-{tag}.json").read_text())
    errors = [f"{tag}: {op['errors']}" for op in report["ops"] if op["errors"]]
    if result["failed"]:
        errors.append(f"{tag}: {result['failed']} of {result['attempted']} ops failed")
    errors += [f"{tag}: {v}" for v in report.get("reconcile", [])]
    return result, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()

    errors = seed0_is_builtin()
    rows = []
    for workload in wl.WORKLOADS:
        plain, errs = run_once(workload, args.seed, args.seconds, 0)
        errors += errs
        traced, errs = run_once(workload, args.seed, args.seconds, 1)
        errors += errs
        if plain and traced:
            m, t = plain["metrics"], traced["metrics"]
            rows.append((workload, m["setup_s"]["value"], m["solve_s"]["value"],
                         m["peak_rss_mb"]["value"], plain["failed"] / plain["attempted"],
                         t["stepper.picard_iters"]["value"], t["linalg.solves"]["value"],
                         t["fdref.banded_solves"]["value"], t["trace.overhead_ratio"]["value"]))
    print(f"{'workload':14s} {'setup_s':>8s} {'solve_s':>8s} {'peak_rss_mb':>11s} "
          f"{'failed_frac':>11s} {'picard':>7s} {'solves':>7s} {'banded':>7s} {'trace_x':>7s}")
    for r in rows:
        print(f"{r[0]:14s} {r[1]:8.3f} {r[2]:8.3f} {r[3]:11.1f} {r[4]:11.3g} "
              f"{r[5]:7g} {r[6]:7g} {r[7]:7g} {r[8]:7.2f}")
    for e in errors:
        print(f"FAIL {e}")
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
