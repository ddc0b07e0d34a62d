"""Regenerate reference/seed0.json: op 0 of every workload at seed 0.

    PYTHONPATH=src python3 perfbench/make_reference.py

The references pin the outputs of the commit that generated them; rerun
only when a change is meant to move the solver's outputs, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

KEEP = ("x", "t", "M", "N", "norms")


def main():
    from rdgalerkin import cli

    refs = {}
    for workload in wl.WORKLOADS:
        doc = wl.problem_doc(workload, 0, 0)
        if workload == "gs-study":
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "problem.json"
                wl.write_custom_problem(path, doc)
                if cli.main(wl.cli_argv(path, Path(tmp) / "out")) != 0:
                    raise SystemExit("CLI failed")
                sample = wl.sample_cli_outputs(Path(tmp) / "out")
        else:
            bench = wl.InProcess(workload, 0)
            problem = bench.prepare(0)
            sample = bench.sample(problem, bench.run(problem))
        errors = wl.check(workload, doc, sample)
        if errors:
            raise SystemExit(f"{workload}: {errors}")
        refs[workload] = {k: sample[k] for k in KEEP if k in sample}
    with open(HERE / "reference" / "seed0.json", "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
