"""Child process of the benchmark: a set-up probe, timed ops, or traced ops.

Started by run.py from the checkout root, with the checkout's ``src`` first
on PYTHONPATH:

    python3 perfbench/worker.py probe --workload W --seed N --tmp DIR
    python3 perfbench/worker.py ops   --workload W --seed N --seconds S --tmp DIR
    python3 perfbench/worker.py trace --workload W --seed N --seconds S --tmp DIR --spans FILE

A probe prints READY once the first op could be issued and exits. The other
modes run ops one at a time (closed loop, one client) until the next op would
end after ``--seconds``, always at least one, and print one JSON object as
their last line.
"""

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference" / "seed0.json"
# The console script's body, so a CLI op is what `rdgalerkin ...` runs.
CLI_LAUNCH = "import sys; from rdgalerkin.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 100.0


def _import_package(module):
    """Import a package module, insisting on the checkout's copy."""
    importlib.import_module(module)
    pkg = sys.modules["rdgalerkin"]
    if ROOT / "src" not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"rdgalerkin imported from {pkg.__file__}, not from {ROOT / 'src'}")


def _cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Sweep:
    """One workload's ops in this process; ``op(k)`` runs and checks op k."""

    def __init__(self, workload, seed, tmp):
        self.workload, self.seed, self.tmp = workload, seed, Path(tmp)
        self.reference = wl.load_reference(REFERENCE)[workload] if seed == 0 else None
        self.outputs = {}  # op -> sample, kept for the traced run's byte counts
        if workload == "gs-study":
            self.next_input = self._cli_input(0)
        else:
            self.bench = wl.InProcess(workload, seed)
            self.next_input = self.bench.prepare(0)

    def _cli_input(self, k):
        path = self.tmp / f"problem{k}.json"
        wl.write_custom_problem(path, wl.problem_doc(self.workload, self.seed, k))
        return wl.cli_argv(path, self.tmp / f"out{k}")

    def _prepare(self, k):
        if self.workload == "gs-study":
            return self._cli_input(k)
        return self.bench.prepare(k)

    def op(self, k, in_process_cli=False):
        """Run op k, timed, then check its outputs (untimed).

        Returns {"start", "seconds", "cpu_s", "rss_kb", "errors"}; ``seconds`` is
        None when the op raised. ``rss_kb`` is set for a CLI process only.
        """
        inputs = self.next_input if k == 0 else self._prepare(k)
        doc = wl.problem_doc(self.workload, self.seed, k)
        rec = dict(start=time.perf_counter(), seconds=None, cpu_s=None, rss_kb=None, errors=[])
        try:
            if self.workload == "gs-study" and not in_process_cli:
                code = self._cli_process(k, inputs, rec)
            else:
                cpu0, rec["start"] = _cpu_s(), time.perf_counter()
                if self.workload == "gs-study":
                    from rdgalerkin import cli

                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(inputs)
                else:
                    code, out = 0, self.bench.run(inputs)
                rec["seconds"] = time.perf_counter() - rec["start"]
                rec["cpu_s"] = _cpu_s() - cpu0
            if code != 0:
                rec["errors"] = [f"CLI exit code {code}"]
                return rec
            if self.workload == "gs-study":
                sample = wl.sample_cli_outputs(self.tmp / f"out{k}")
            else:
                sample = self.bench.sample(inputs, out)
        except Exception as err:  # an op that raises counts as failed
            rec["seconds"] = None
            rec["errors"] = [f"{type(err).__name__}: {err}"]
            return rec
        self.outputs[k] = sample
        rec["errors"] = wl.check(self.workload, doc, sample, self.reference)
        return rec

    def _cli_process(self, k, argv, rec):
        """The CLI as a fresh process, timed from start to exit, with its rusage."""
        env = dict(os.environ, PYTHONPATH=_pythonpath())
        with open(self.tmp / f"cli{k}.log", "w") as log:
            rec["start"] = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI_LAUNCH, *argv],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            rec["seconds"] = time.perf_counter() - rec["start"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec["cpu_s"] = usage.ru_utime + usage.ru_stime
        rec["rss_kb"] = usage.ru_maxrss
        return proc.returncode


def _pythonpath():
    rest = os.environ.get("PYTHONPATH")
    return str(ROOT / "src") + (os.pathsep + rest if rest else "")


def _closed_loop(seconds, run_op):
    """Call run_op(k) for k = 0, 1, ... until the next op would end after ``seconds``."""
    start = time.perf_counter()
    lengths, k = [], 0
    while True:
        t0 = time.perf_counter()
        run_op(k)
        lengths.append(time.perf_counter() - t0)
        k += 1
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return k


def _openblas(path):
    """Version string and thread count in effect of one loaded OpenBLAS."""
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if threads is not None:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                config.restype = ctypes.c_char_p
                return {"library": Path(path).name, "threads": threads(),
                        "config": config().decode()}
    return {"library": Path(path).name}


def environment():
    """Versions, core count and the BLAS threads in effect in this process."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": [_openblas(path) for path in libs],
        "limits": (
            "Shared 2-core host whose core speed varies up to about 1.9x with "
            "other tenants' load: a timing run pins its processes to one core "
            "and scales its times by a kernel sampled on that core "
            "(calibrate.py); tails are for reading only. No machine-wide "
            "tracing: spans come from wrapping the package's functions in the "
            "measured process. No bandwidth metric: every working set (at most "
            "about 200 KB) fits in one core's 2 MiB L2."
        ),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "ops", "trace"))
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    if args.mode == "trace":
        # first import of numpy and the package in this process
        t0 = time.perf_counter()
        _import_package("rdgalerkin.cli")
        import_s = time.perf_counter() - t0
        _import_package("rdgalerkin.fdref")
    elif args.mode == "probe" or args.workload != "gs-study":
        _import_package(wl.SETUP_IMPORT[args.workload])
    sweep = Sweep(args.workload, args.seed, args.tmp)
    if args.mode == "probe":
        print("READY", flush=True)
        return

    result = {"workload": args.workload, "seed": args.seed, "ops": []}
    if args.mode == "ops":
        _closed_loop(args.seconds, lambda k: result["ops"].append(sweep.op(k)))
        result["process_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracer import Tracer, op_metrics

        tracer = Tracer()
        traced_ops = []

        # op 0 warms up (first calls, page faults) so that it biases neither side
        result["ops"].append(dict(sweep.op(0, in_process_cli=True), traced=False, warm_up=True))

        def run_pair(k):
            # untraced then traced, each on its own op input
            result["ops"].append(dict(sweep.op(2 * k + 1, in_process_cli=True), traced=False))
            tracer.op = 2 * k + 2
            tracer.install()
            try:
                rec = sweep.op(2 * k + 2, in_process_cli=True)
            finally:
                tracer.uninstall()
            result["ops"].append(dict(rec, traced=True))
            traced_ops.append(2 * k + 2)

        _closed_loop(args.seconds, run_pair)
        theta = wl.TP1_THETA if args.workload == "tp1-trapezoid" else 1.0
        per_op = [op_metrics(tracer.spans, op, theta) for op in traced_ops]
        for op, m in zip(traced_ops, per_op):
            sample = sweep.outputs.get(op, {})
            m["cli.bytes_written"] = sample.get("bytes", 0)
            m["cli.files_written"] = len(sample.get("files", []))
        result["reconcile"] = sorted({v for m in per_op for v in m.pop("_reconcile")})
        result["per_op"] = per_op
        result["cli.import_s"] = import_s
        if args.spans:
            tracer.write(args.spans)
    result["env"] = environment()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
