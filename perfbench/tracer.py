"""Outside-in tracer for beamload: wrappers installed at every import site.

beamload modules import each other's functions by name (`objective`,
`verify`, `measurements` and `cli` each hold their own `solve_forward`),
so wrapping a function in its home module alone would miss most calls.
Entering a `Tracer` finds every module attribute that *is* a traced function
and replaces it with one shared wrapper; leaving it puts the originals
back.  Nothing inside `src/` changes.

A span is [name, parent, start, end, info] in a list kept in memory,
where info holds counts read from the call's arguments and result; counters
record work that is too fine-grained to be a span (factorizations, spline
fits).  Per-step calls such as `cho_solve_banded` are not wrapped: there
are ~10^5 of them per operation, so the Newmark step time is derived from
the span of the whole pass instead.
"""

import functools
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ("assembly", "forward", "adjoint", "objective", "inversion",
           "measurements", "verify", "io", "cli")

# (home module, function): the span is named `<module>.<function>` after
# the layer it enters, and per-layer metrics read `<span>.<metric>`.
SPANS = [
    ("assembly", "assemble"),
    ("forward", "newmark_integrate"),
    ("forward", "solve_forward"),
    ("forward", "energy_residual"),
    ("forward", "check_apriori_estimates"),
    ("adjoint", "solve_adjoint"),
    ("adjoint", "check_adjoint_estimates"),
    ("objective", "evaluate_objective"),
    ("objective", "compute_gradient"),
    ("inversion", "run_inversion"),
    ("inversion", "reconstruct_parametric"),
    ("inversion", "_backtrack"),
    ("measurements", "smooth_to_h1"),
    ("measurements", "add_noise"),
    ("measurements", "generate_scenario"),
    ("measurements", "manufactured_case"),
    ("verify", "verify_inequality_suite"),
    ("verify", "duality_checks"),
    ("verify", "gradient_fd_checks"),
    ("io", "parse_config"),
    ("io", "config_hash"),
    ("io", "save_coefficient"),
    ("io", "save_load"),
    ("io", "save_field"),
    ("io", "save_measurements"),
    ("io", "save_sidecar"),
    ("io", "save_iteration_log"),
    ("io", "save_check_report"),
    ("cli", "main"),
]

# foreign functions counted (not timed) where one beamload module imports
# them: (importing module, attribute, counter name)
COUNTERS = [
    ("forward", "cholesky_banded", "forward.factorizations"),
    ("measurements", "make_smoothing_spline", "measurements.spline_fits"),
]

ROOT = "op"


class Tracer:
    """Collects spans and counters of one operation at a time."""

    def __init__(self):
        self.spans = []        # [name, parent index, start, end, info]
        self.counters = {}
        self._stack = []
        self._saved = []       # (module, attribute, original)

    # -- recording -------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def span_wrapper(self, name, fn, info=None):
        """Wrap `fn` in a span; `info(arguments, result)` may attach counts
        taken from the call's own arguments (by name) and result.  Calls
        made outside an operation, such as input generation, pass through
        unrecorded."""
        signature = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if info is not None:
                # taken after the span ends, so it costs the caller's span
                arguments = signature.bind(*args, **kwargs).arguments
                self.spans[index][4] = info(arguments, result)
            return result
        return wrapper

    def counter_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def run_op(self, fn, *args, **kwargs):
        """Run one operation under a root span; returns its result."""
        self.spans = []
        self.counters = {}
        index = self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    # -- installation ----------------------------------------------------
    def __enter__(self):
        """Replace every import site of the traced functions."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"beamload.{m}") for m in MODULES}
        package = importlib.import_module("beamload")
        sites = list(mods.values()) + [package]
        # keyed by id: module namespaces also hold unhashable values
        replacements = {}
        for home, fname in SPANS:
            original = getattr(mods[home], fname)
            span = f"{home}.{fname.lstrip('_')}"
            replacements[id(original)] = (original, self.span_wrapper(
                span, original, _INFO.get(span)))
        for home, attr, counter in COUNTERS:
            original = getattr(mods[home], attr)
            replacements[id(original)] = (
                original, self.counter_wrapper(counter, original))
        # `minimize` receives the L-BFGS-B objective as an argument, so its
        # wrapper wraps that argument: one span per evaluation
        original = mods["inversion"].minimize
        replacements[id(original)] = (original, self._minimize_wrapper(
            original))
        for module in sites:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        """Put every original back."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _minimize_wrapper(self, minimize):
        @functools.wraps(minimize)
        def wrapper(fun, *args, **kwargs):
            return minimize(self.span_wrapper("inversion.lbfgs_evaluation",
                                              fun), *args, **kwargs)
        return wrapper

    # -- analysis --------------------------------------------------------
    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, _, start, end, _), c in zip(self.spans, child)]


def _newmark_info(a, result):
    """Steps taken and bytes of the matrices each step touches.

    Computed, not measured: M and C are dense (n, n) float64 arrays read
    by one matvec each per step, and the banded factor is read by one
    banded solve; the factor's size is rebuilt from the bandwidth of the
    effective matrix exactly as `newmark_integrate` builds it.
    """
    M, C = a["M"], a["C"]
    n = M.shape[0]
    nz = np.nonzero(a["K"] + M + C)
    bw = int(np.max(nz[1] - nz[0]))
    return {"steps": a["forces"].shape[0] - 1,
            "matrix_bytes_per_step": M.nbytes + C.nbytes + (bw + 1) * n * 8}


def _backtrack_info(a, result):
    return {"accepted": bool(result[1] < a["J"])}


def _inversion_info(a, result):
    return {"iterations": result.iterations}


def _suite_info(a, result):
    return {"rows": len(result.rows), "violations": len(result.violations)}


def _save_info(a, result):
    return {"bytes": os.path.getsize(a["path"])}


_INFO = {
    "forward.newmark_integrate": _newmark_info,
    "inversion.run_inversion": _inversion_info,
    "inversion.backtrack": _backtrack_info,
    "verify.verify_inequality_suite": _suite_info,
    "verify.duality_checks": _suite_info,
    "verify.gradient_fd_checks": _suite_info,
}
for _home, _fname in SPANS:
    if _home == "io" and _fname.startswith("save_"):
        _INFO[f"io.{_fname}"] = _save_info


def layer_metrics(tracer):
    """Per-layer metrics of the operation the tracer last recorded."""
    selfs = tracer.self_times()
    calls, self_s, incl, infos = {}, {}, {}, {}
    for (name, _, start, end, info), s in zip(tracer.spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        incl[name] = incl.get(name, 0.0) + (end - start)
        if info is not None:
            infos.setdefault(name, []).append(info)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    newmark = infos.get("forward.newmark_integrate", [])
    steps = sum(i["steps"] for i in newmark)
    iterations = sum(i["iterations"]
                     for i in infos.get("inversion.run_inversion", []))
    backtracks = infos.get("inversion.backtrack", [])
    trials = sum(1 for name, parent, *_ in tracer.spans
                 if name == "objective.evaluate_objective" and parent >= 0
                 and tracer.spans[parent][0] == "inversion.backtrack")
    suites = [i for name in ("verify.verify_inequality_suite",
                             "verify.duality_checks",
                             "verify.gradient_fd_checks")
              for i in infos.get(name, [])]
    saves = [name for name in calls if name.startswith("io.save_")]
    fits = tracer.counters.get("measurements.spline_fits", 0)
    return {
        "assembly.assemble.calls": c("assembly.assemble"),
        "assembly.assemble.self_s": s("assembly.assemble"),
        "forward.newmark_integrate.calls": c("forward.newmark_integrate"),
        "forward.newmark_integrate.self_s": s("forward.newmark_integrate"),
        "forward.newmark.step_us":
            ratio(s("forward.newmark_integrate"), steps) * 1e6,
        "forward.factorizations":
            tracer.counters.get("forward.factorizations", 0),
        "forward.newmark.matrix_bytes_per_step":
            max((i["matrix_bytes_per_step"] for i in newmark), default=0),
        "forward.solve_forward.calls": c("forward.solve_forward"),
        "forward.solve_forward.self_s": s("forward.solve_forward"),
        "forward.energy_residual.self_s": s("forward.energy_residual"),
        "forward.check_apriori_estimates.self_s":
            s("forward.check_apriori_estimates"),
        "adjoint.solve_adjoint.calls": c("adjoint.solve_adjoint"),
        "adjoint.solve_adjoint.self_s": s("adjoint.solve_adjoint"),
        "adjoint.check_adjoint_estimates.self_s":
            s("adjoint.check_adjoint_estimates"),
        "objective.evaluate_objective.calls":
            c("objective.evaluate_objective"),
        "objective.compute_gradient.calls": c("objective.compute_gradient"),
        "objective.compute_gradient.self_s": s("objective.compute_gradient"),
        "inversion.iterations": iterations,
        "inversion.landweber.iteration_s":
            ratio(incl.get("inversion.run_inversion", 0.0), iterations),
        "inversion.backtrack.trials": trials,
        "inversion.backtrack.accepted_ratio":
            ratio(sum(i["accepted"] for i in backtracks), trials),
        "inversion.lbfgs.evaluations": c("inversion.lbfgs_evaluation"),
        "inversion.lbfgs.evaluation_s":
            ratio(incl.get("inversion.lbfgs_evaluation", 0.0),
                  c("inversion.lbfgs_evaluation")),
        "measurements.smooth_to_h1.self_s": s("measurements.smooth_to_h1"),
        "measurements.spline_fits": fits,
        "measurements.spline_fits_kept_ratio":
            ratio(2 * c("measurements.smooth_to_h1"), fits),
        "verify.verify_inequality_suite.self_s":
            s("verify.verify_inequality_suite"),
        "verify.duality_checks.self_s": s("verify.duality_checks"),
        "verify.gradient_fd_checks.self_s": s("verify.gradient_fd_checks"),
        "verify.rows": sum(i["rows"] for i in suites),
        "verify.violations": sum(i["violations"] for i in suites),
        "io.save.self_s": sum(s(name) for name in saves),
        "io.bytes_written": sum(i["bytes"] for name in saves
                                for i in infos.get(name, [])),
        "cli.main.self_s": s("cli.main"),
        "trace.op_s": incl.get(ROOT, 0.0),
    }

