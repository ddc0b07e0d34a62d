"""Benchmark driver for rdgalerkin: one workload, one seed, one run.

    python3 perfbench/run.py --workload {tp1-trapezoid,fd-oracle,gs-study} \
        --seed N --seconds S --trace {0,1}

Run it from a source checkout; the package is imported from the checkout's
``src``, never from an installed copy. With ``--trace 0``:

1. Every process of the run is pinned to one core, beside calibrate.py's
   host-speed sampler.
2. One untimed set-up probe (compiles the package's bytecode), then
   ``SETUP_PROBES`` fresh processes, each timed from its start until the
   first op could be issued (imports plus input generation).
3. One fresh worker runs ops one at a time for ``S`` seconds (for gs-study
   each op is a fresh CLI process) and checks every op's outputs.

``setup_s`` and ``solve_s`` are medians of those times, each scaled to the
reference host speed by the sampler; ``peak_rss_mb`` is the peak resident set
of the process that ran the ops (median over the CLI processes for gs-study).
With ``--trace 1`` the worker, not pinned, alternates untraced and traced ops
and reports per-layer metrics. README.md defines every metric.

The last line of stdout is the JSON result; the lines before it are for
people. The full record of the run goes to ``perfbench/out/`` (git-ignored).
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402
from worker import ROOT, _pythonpath  # noqa: E402

SETUP_PROBES = 7
RUN_TIMEOUT_S = 140.0  # per child; a run must end within 180 s
OUT = HERE / "out"

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "basis.tabulations": "count", "basis.member_evals": "count", "basis.busy_s": "s",
    "quadrature.rules": "count",
    "problems.splits": "count",
    "assembly.calls": "count", "assembly.self_s": "s",
    "assembly.tabulations_per_iterate": "ratio",
    "linalg.solves": "count", "linalg.busy_s": "s", "linalg.cond_s": "s",
    "stepper.steps": "count", "stepper.picard_iters": "count",
    "stepper.iters_per_step": "ratio", "stepper.step_p50_s": "s",
    "stepper.step_p95_s": "s", "stepper.self_s": "s", "stepper.initial_s": "s",
    "stepper.runs": "count", "stepper.unique_run_ratio": "ratio",
    "norms.evaluate_calls": "count", "norms.evaluate_points": "count",
    "norms.busy_s": "s", "norms.self_convergence_calls": "count",
    "fdref.banded_solves": "count", "fdref.banded_busy_s": "s", "fdref.self_s": "s",
    "fdref.iters_per_step": "ratio", "fdref.banded_bytes_computed": "B",
    "cli.import_s": "s", "cli.parse_s": "s", "cli.emit_self_s": "s",
    "cli.bytes_written": "B", "cli.files_written": "count",
    "svg.plots": "count", "svg.busy_s": "s", "svg.bytes": "B",
    "process.cpu_s": "s", "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def _worker(mode, workload, seed, tmp, seconds=None, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", workload, "--seed", str(seed), "--tmp", str(tmp)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=_pythonpath())
    # own process group, so a timeout also stops the CLI processes it started
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT, start_new_session=True)


def _finish(proc, what):
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        if os.getpgid(proc.pid) == proc.pid:  # a worker, with the CLI processes it started
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        proc.communicate()
        raise BenchError(f"{what} timed out")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{err.strip()}")
    return out


def setup_probe(workload, seed, tmp):
    """Start time and seconds from process start until the probe reports READY."""
    t0 = time.perf_counter()
    proc = _worker("probe", workload, seed, tmp)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    _finish(proc, "set-up probe")
    if line.strip() != "READY":
        raise BenchError(f"set-up probe printed {line!r}")
    return {"start": t0, "seconds": ready}


class Sampler:
    """calibrate.py running beside the run on the same core (see its docstring)."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self.samples = []
        return self

    def __exit__(self, *exc):
        out = _finish(self.proc, "calibration sampler")  # closes its stdin: it stops
        self.samples = json.loads(out)

    def scaled(self, interval):
        """The interval's seconds at the reference host speed."""
        t0, t1 = interval["start"], interval["start"] + interval["seconds"]
        inside = [k for t, k in self.samples if t0 <= t <= t1]
        if not inside:
            raise BenchError(f"no calibration sample during a {interval['seconds']:.3f} s interval")
        speed = calibrate.REFERENCE_S / statistics.mean(inside)
        return interval["seconds"] * speed ** calibrate.SENSITIVITY


def op_times(values):
    """Count, fastest, median and the highest percentile with ten samples beyond it."""
    vs = sorted(values)
    tail = None
    for p in (99.9, 99, 95, 90, 75):
        if len(vs) * (1 - p / 100) >= 10:
            tail = [p, statistics.quantiles(vs, n=1000, method="inclusive")[round(p * 10) - 1]]
            break
    return {"ops": len(vs), "fastest": vs[0], "median": statistics.median(vs), "tail": tail}


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "rdgalerkin" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'rdgalerkin'}")
    if not trace:
        # one core for every process of the run, so the sampler sees the same
        # interference as the ops (it differs between the two cores)
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        with contextlib.nullcontext() if trace else Sampler() as sampler:
            setup_probe(workload, seed, tmp)  # untimed warm-up
            setups = [setup_probe(workload, seed, tmp) for _ in range(0 if trace else SETUP_PROBES)]
            spans = OUT / f"spans-{tag}.csv" if trace else None
            proc = _worker("trace" if trace else "ops", workload, seed, tmp, seconds, spans)
            report = json.loads(_finish(proc, "worker").strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = report["ops"]
    failed = [op for op in ops if op["errors"] or op["seconds"] is None]
    if trace:
        values, units = _layer_values(report), PER_LAYER_UNITS
    else:
        values, units = _end_to_end_values(workload, report, setups, sampler), END_TO_END_UNITS
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    report["result"] = result
    with open(OUT / f"result-{tag}.json", "w") as f:
        json.dump(report, f, indent=1)

    print(f"workload {workload} seed {seed} trace {int(trace)}: {len(ops)} ops, "
          f"failed_frac {len(failed) / len(ops):.4g}")
    for op in failed[:5]:
        print(f"  failed op: {op['errors']}")
    if trace:
        print("  count reconciliation: "
              + ("; ".join(report["reconcile"]) if report["reconcile"] else "ok"))
    else:
        timing = report["op_times"]
        tail = timing["tail"]
        print(f"  op wall time over {timing['ops']} ops: median {timing['median']:.4f} s, "
              f"fastest {timing['fastest']:.4f} s, tail "
              + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "n/a (under 10 ops beyond p75)")
              + "; solve_s is the median at the reference host speed")
    print(f"  environment: {json.dumps(report['env'])}")
    print(json.dumps(result))


def _end_to_end_values(workload, report, setups, sampler):
    """setup_s, solve_s (medians at the reference host speed) and peak_rss_mb."""
    timed = [op for op in report["ops"] if op["seconds"] is not None]
    report["op_times"] = op_times([op["seconds"] for op in timed] or [0.0])
    for rec in setups + timed:
        rec["scaled_s"] = sampler.scaled(rec)
    report["setup_probes"] = setups
    report["calibration"] = sampler.samples
    if workload == "gs-study":
        peak_kb = statistics.median(op["rss_kb"] for op in timed) if timed else 0
    else:
        peak_kb = report["process_rss_kb"]
    return {
        "setup_s": statistics.median(r["scaled_s"] for r in setups),
        "solve_s": statistics.median(r["scaled_s"] for r in timed) if timed else 0.0,
        "peak_rss_mb": peak_kb / 1024,
    }


def _layer_values(report):
    """Layer metrics of the traced ops, plus the process-level ones."""
    ops, per_op = report["ops"], report["per_op"]
    untraced = [op for op in ops if not (op["traced"] or op.get("warm_up"))
                and op["seconds"] is not None]
    traced = [op["seconds"] for op in ops if op["traced"] and op["seconds"] is not None]
    values = dict.fromkeys(PER_LAYER_UNITS, 0)
    for k in per_op[0] if per_op else ():
        # Times: median over the traced ops. Counts, bytes and ratios: the
        # first traced op, which every traced run of the seed executes, so
        # they repeat exactly (the per-op input offsets can move a Picard
        # count by one at a step whose correction sits near the tolerance).
        time_metric = PER_LAYER_UNITS[k] == "s"
        values[k] = statistics.median(m[k] for m in per_op) if time_metric else per_op[0][k]
    values["cli.import_s"] = report["cli.import_s"]
    if untraced:
        values["process.cpu_s"] = statistics.median(op["cpu_s"] for op in untraced)
        if traced:
            values["trace.overhead_ratio"] = (
                statistics.median(traced) / statistics.median(op["seconds"] for op in untraced))
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
