"""Spans for the traced run, recorded by wrapping the package from outside.

Each public function in ``TARGETS`` is replaced by a recording wrapper under
every name the package's modules hold it by (``stepper.lu_solve`` as well as
``linalg.lu_solve``, ``fdref.solve_banded`` for scipy's routine), so a call
is recorded whichever module its caller looks it up in. Nothing inside the
package changes. Spans stay in memory until ``write``.
"""

import os
import statistics
import sys
import time

import numpy as np

# layer -> functions wrapped; the layer is the module the function belongs to
# (scipy's solve_banded is counted as fdref's, the only module calling it).
TARGETS = {
    "basis": ("value", "derivative", "value_matrix", "derivative_matrix"),
    "quadrature": ("gauss_legendre",),
    "problems": ("picard_split",),
    "assembly": (
        "assemble_mass", "assemble_stiffness", "assemble_coupling",
        "assemble_loads", "project_initial",
    ),
    "linalg": ("lu_solve", "condition_estimate"),
    "stepper": ("run", "step", "initial_state"),
    "norms": ("evaluate", "self_convergence"),
    "fdref": ("fd_solve", "solve_banded"),
    "cli": ("main", "parse_config", "run_and_emit", "load_custom_problem"),
    "svg": ("line_plot",),
}

NAME, START, END, PARENT, OP, NOTE = range(6)


def _run_key(args):
    """Identity of a trajectory: problem values, initial data, basis, config."""
    problem, basis, config = args[:3]
    probe = np.linspace(problem.lower, problem.upper, 7)
    scalars = tuple(
        v for v in vars(problem).values() if isinstance(v, (int, float, str))
    )
    return (
        scalars, repr(problem.reaction),
        tuple(problem.initial_M(probe)), tuple(problem.initial_N(probe)),
        basis, config,
    )


# Observations taken from a call's arguments and result, stored on its span.
_NOTES = {
    "stepper.step": lambda args, out: out.picard_iters_last,
    "stepper.run": lambda args, out: _run_key(args),
    "norms.evaluate": lambda args, out: int(np.size(args[3])),
    "fdref.fd_solve": lambda args, out: round(args[3] / args[2]),
    "fdref.solve_banded": lambda args, out: args[1].nbytes + np.asarray(args[2]).nbytes + out.nbytes,
    "svg.line_plot": lambda args, out: os.path.getsize(args[0]),
}


class Tracer:
    """Records (name, start, end, parent, op, note) for every wrapped call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.op = -1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target under each alias held by a loaded package module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "rdgalerkin" or n.startswith("rdgalerkin.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"rdgalerkin.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        """Spans as CSV: name,start_s,end_s,parent,op (parent -1 at top level)."""
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent,op\n")
            for s in self.spans:
                f.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]}\n")


def _layer(name):
    return name.split(".", 1)[0]


def op_metrics(spans, op, theta):
    """Per-layer metrics of one traced op, from its spans alone."""
    idx = [i for i, s in enumerate(spans) if s[OP] == op]
    dur = {i: spans[i][END] - spans[i][START] for i in idx}
    child_time = dict.fromkeys(idx, 0.0)
    for i in idx:
        if spans[i][PARENT] >= 0:
            child_time[spans[i][PARENT]] += dur[i]

    def up_layers(i):
        """Layers of the span's ancestors."""
        out, p = set(), spans[i][PARENT]
        while p >= 0:
            out.add(_layer(spans[p][NAME]))
            p = spans[p][PARENT]
        return out

    by_name = {}
    for i in idx:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def named(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def of_layer(layer):
        return [i for i in idx if _layer(spans[i][NAME]) == layer]

    def total(ids):
        return sum(dur[i] for i in ids)

    def self_time(ids):
        return sum(dur[i] - child_time[i] for i in ids)

    def inclusive(layer, minus=None):
        """Time in the layer's outermost spans, less outermost ``minus`` spans inside them."""
        t = total(i for i in of_layer(layer) if layer not in up_layers(i))
        if minus is not None:
            t -= total(i for i in of_layer(minus)
                       if layer in up_layers(i) and minus not in up_layers(i))
        return t

    def notes(ids):
        return sum(spans[i][NOTE] or 0 for i in ids)

    steps = named("stepper.step")
    iters = notes(steps)
    runs = named("stepper.run")
    tabulations = named("basis.value_matrix", "basis.derivative_matrix")
    run_tabulations = sum(1 for i in tabulations if "stepper" in up_layers(i))
    step_times = sorted(dur[i] for i in steps)
    solves = named("linalg.lu_solve")
    splits = named("problems.picard_split")
    banded = named("fdref.solve_banded")
    fd_steps = notes(named("fdref.fd_solve"))
    svgs = named("svg.line_plot")
    return {
        "basis.tabulations": len(tabulations),
        "basis.member_evals": len(named("basis.value", "basis.derivative")),
        "basis.busy_s": inclusive("basis"),
        "quadrature.rules": len(named("quadrature.gauss_legendre")),
        "problems.splits": len(splits),
        "assembly.calls": len(of_layer("assembly")),
        "assembly.self_s": self_time(of_layer("assembly")),
        "assembly.tabulations_per_iterate": run_tabulations / iters if iters else 0.0,
        "linalg.solves": len(solves),
        "linalg.busy_s": inclusive("linalg"),
        "linalg.cond_s": total(named("linalg.condition_estimate")),
        "stepper.steps": len(steps),
        "stepper.picard_iters": iters,
        "stepper.iters_per_step": iters / len(steps) if steps else 0.0,
        "stepper.step_p50_s": _quantile(step_times, 0.50),
        "stepper.step_p95_s": _quantile(step_times, 0.95),
        "stepper.self_s": self_time(of_layer("stepper")),
        "stepper.initial_s": total(named("stepper.initial_state")),
        "stepper.runs": len(runs),
        "stepper.unique_run_ratio": len({spans[i][NOTE] for i in runs}) / len(runs) if runs else 0.0,
        "norms.evaluate_calls": len(named("norms.evaluate")),
        "norms.evaluate_points": notes(named("norms.evaluate")),
        "norms.busy_s": inclusive("norms", minus="stepper"),
        "norms.self_convergence_calls": len(named("norms.self_convergence")),
        "fdref.banded_solves": len(banded),
        "fdref.banded_busy_s": total(banded),
        "fdref.self_s": self_time(named("fdref.fd_solve")),
        "fdref.iters_per_step": len(banded) / fd_steps if fd_steps else 0.0,
        "fdref.banded_bytes_computed": notes(banded),
        "cli.parse_s": total(named("cli.parse_config")),
        "cli.emit_self_s": self_time(named("cli.run_and_emit")),
        "svg.plots": len(svgs),
        "svg.busy_s": total(svgs),
        "svg.bytes": notes(svgs),
        "_reconcile": _reconcile(len(solves), iters, len(runs), len(splits), len(steps), theta),
    }


def _reconcile(solves, iters, runs, splits, steps, theta):
    """Count identities of the solver path; returns a list of violations."""
    bad = []
    if solves != iters + 2 * runs:
        bad.append(f"linalg.solves {solves} != picard_iters {iters} + 2 * runs {runs}")
    want = iters + (steps if theta < 1.0 else 0)
    if splits != want:
        bad.append(f"problems.splits {splits} != {want}")
    return bad


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]
