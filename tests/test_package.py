"""Guards for deletions and style: the public names and the demos stay
importable, the source, the tests and the demos keep to 79 columns and
import no name they do not use, and the source defines no function or
class that the program does not read."""

import ast
import fnmatch
import importlib.util
import pathlib
import subprocess
import sys

import pytest

import beamload

TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SOURCES = sorted(pathlib.Path(beamload.__file__).parent.glob("*.py"))
PERFBENCH = sorted((pathlib.Path(__file__).parent.parent
                    / "perfbench").glob("*.py"))


@pytest.mark.parametrize("name", beamload.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(beamload, name)


UNUSED_AT_IMPORT = ("scipy", "scipy.fft", "scipy.interpolate", "scipy.linalg",
                    "scipy.optimize", "scipy.sparse")

# One fresh interpreter runs the stages in order and prints one labelled
# line per check. The kernel's transforms come from numpy.fft, the
# smoothing spline and its Chandrupatla root-find are in-house, the three
# LAPACK and BLAS routines of Newmark and of the spline's banded solve
# come from the OpenBLAS numpy bundles, and the banded products of the
# quadratic forms are numpy's, so neither an import, a full-field
# inversion, an energy form nor the verification suite loads
# scipy at all, nor maps scipy's own OpenBLAS (on Linux, where
# /proc/self/maps lists the mapped libraries). scipy.optimize loads when
# a parametric fit first needs it, and scipy.linalg with it, since
# `least_squares` imports it, and they map scipy's OpenBLAS. Importing
# either up front would cost every process startup time and memory for
# nothing.
LAZY_IMPORTS = f"""
import sys
def loaded(*names):
    return " ".join(str(name in sys.modules) for name in names)
def scipy_blas():
    names = loaded("beamload._flapack", "beamload._fblas")
    if not sys.platform.startswith("linux"):
        return names
    with open("/proc/self/maps") as maps:
        return names + " " + str("/libscipy_openblas-" in maps.read())
import beamload
print("import beamload:", loaded(*{UNUSED_AT_IMPORT}))
import beamload.cli
print("import beamload.cli:", loaded(*{UNUSED_AT_IMPORT}))

import numpy as np
from beamload.assembly import assemble
from beamload.forward import quadratic_forms, solve_forward
from beamload.inversion import (InversionConfig, reconstruct_parametric,
                                run_inversion)
from beamload.measurements import (ModalLoad, NoiseSpec, add_noise,
                                   smooth_to_h1)
from beamload.model import (CoefficientSet, MeasurementSeries,
                            SpaceTimeGrid, series_l2_norm)
from beamload.verify import verify_inequality_suite

t = np.linspace(0.0, 1.0, 129)
noisy = add_noise(MeasurementSeries(theta0=t ** 2, thetaL=t - t ** 3),
                  NoiseSpec(0.05, seed=0), t[1] - t[0])
# no weight fits closer than this noise level: lambda clamps, no root-find
smooth_to_h1(MeasurementSeries(noisy.theta0, noisy.thetaL, 1e-30), t)
print("clamped smoothing:", loaded("scipy.optimize"))
smooth = smooth_to_h1(noisy, t)
target = noisy.noise_delta / np.sqrt(2.0)
res = series_l2_norm(smooth.theta0 - noisy.theta0, t[1] - t[0])
print("root-found smoothing:", loaded("scipy.optimize"),
      abs(res - target) <= 1e-6 * target)

grid = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=32)
coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.1, r=0.8,
                                 kappa=0.02)
clean = solve_forward(coeffs, ModalLoad((1.0, 0.5)).field(grid), grid)
noisy = add_noise(clean.outputs, NoiseSpec(0.05, seed=0), grid.dt)
state = run_inversion(smooth_to_h1(noisy, grid.times), coeffs, grid,
                      InversionConfig(step_rule="backtracking",
                                      noise_delta=noisy.noise_delta))
print("full-field inversion:",
      loaded("scipy", "scipy.optimize", "scipy.sparse"), state.stop_reason)

system = assemble(grid, coeffs)
energy = quadratic_forms(system.M, np.ones((system.n_dofs, 1)))
print("quadratic form:", loaded("scipy", "scipy.sparse"), energy[0] > 0)
report = verify_inequality_suite(grid, coeffs, n_scenarios=1)
print("verify suite:", loaded("scipy", "scipy.sparse"), len(report.rows) > 0)
print("scipy's BLAS:", scipy_blas())

print("before the fit:", loaded("scipy.optimize", "scipy.linalg"))
result = reconstruct_parametric(clean.outputs, coeffs, grid,
                                ModalLoad((0.5, 0.0)))
print("parametric fit:", loaded("scipy.optimize", "scipy.linalg"),
      result.n_evaluations > 1)
print("scipy's BLAS after the fit:", scipy_blas())
"""


@pytest.fixture(scope="module")
def lazy_imports():
    """The labelled lines of LAZY_IMPORTS, run once by a new interpreter
    that imports this checkout's beamload, keyed by label."""
    out = subprocess.run([sys.executable, "-c", LAZY_IMPORTS],
                         capture_output=True, text=True, check=True,
                         timeout=60,
                         cwd=pathlib.Path(beamload.__file__).parent.parent)
    return dict(line.split(": ", 1) for line in out.stdout.splitlines())


@pytest.mark.parametrize("module", ["beamload", "beamload.cli"])
def test_import_leaves_unused_scipy_modules_unloaded(module, lazy_imports):
    unloaded = " ".join(["False"] * len(UNUSED_AT_IMPORT))
    assert lazy_imports[f"import {module}"] == unloaded


def test_smoothing_never_loads_scipy_optimize(lazy_imports):
    # the smoothing weight's root-find is in-house, so neither a clamped
    # weight nor a root-find loads scipy.optimize
    assert lazy_imports["clamped smoothing"] == "False"
    assert lazy_imports["root-found smoothing"] == "False True"


def test_full_field_inversion_leaves_optimize_and_sparse_unloaded(
        lazy_imports):
    # a noisy twin smoothed into H1 and inverted by the adjoint Landweber
    # loop needs neither a fit nor a quadratic form, and its banded solves
    # load no scipy package module
    assert (lazy_imports["full-field inversion"]
            == "False False False discrepancy")


def test_quadratic_forms_and_verify_suite_leave_scipy_unloaded(
        lazy_imports):
    # the energy forms and the suite's Gram series take their banded
    # products from numpy, so neither loads a scipy package module
    assert lazy_imports["quadratic form"] == "False False True"
    assert lazy_imports["verify suite"] == "False False True"


def test_forward_smoothing_inversion_and_verify_leave_scipy_blas_unmapped(
        lazy_imports):
    # after a forward pass, both smoothings, a full-field inversion and a
    # verify suite: no module loaded from scipy's compiled LAPACK and
    # BLAS files, and (on Linux) scipy's OpenBLAS not mapped; the
    # parametric fit's scipy.linalg then maps it, which shows the check
    # sees the library
    linux = sys.platform.startswith("linux")
    assert lazy_imports["scipy's BLAS"] == " ".join(
        ["False"] * (3 if linux else 2))
    if linux:
        assert lazy_imports["scipy's BLAS after the fit"].endswith("True")


@pytest.mark.parametrize(
    "stages",
    [{"before the fit": "False False", "parametric fit": "True True True"}],
    ids=["reconstruct_parametric"])
def test_scipy_module_loads_on_first_use(stages, lazy_imports):
    # the least-squares fit still runs in a fresh process, and
    # scipy.optimize (with the scipy.linalg that `least_squares` imports)
    # loads only when it is called
    assert {stage: lazy_imports[stage] for stage in stages} == stages


def scopes_of(path, hit):
    """`file:scope` of each node of the module at `path` for which
    `hit(node)` holds.  The scope is the top-level function or class
    around it, `<except>` for a module-level exception handler and
    `<module>` for other module-level code."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if scope == "<module>":
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = child.name
                elif isinstance(child, ast.ExceptHandler):
                    inner = "<except>"
            if hit(child):
                found.add(f"{path.name}:{inner}")
            visit(child, inner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def imports_of(package, path):
    """`scopes_of` each statement that imports `package` or one of its
    modules."""
    def hit(node):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            modules = []
        return any(m.split(".")[0] == package for m in modules)
    return scopes_of(path, hit)


def imported_by(package):
    return sorted(set().union(*(imports_of(package, path)
                                for path in SOURCES)))


def test_scipy_imported_only_by_lapack_fallback_and_least_squares():
    # every other scipy import would load a package module in some run:
    # scipy.linalg is imported for its LAPACK and BLAS only when numpy
    # bundles no 64-bit-integer OpenBLAS that has the three routines
    # (dpbtrf, dpbtrs, dsbmv), and scipy.optimize on the first
    # parametric fit
    assert imported_by("scipy") == ["_lapack.py:<except>",
                                    "inversion.py:minimize"]


def test_ctypes_imported_only_by_lapack():
    # raw pointers go to a foreign library in one module, which checks
    # every array before it hands its address on
    assert imported_by("ctypes") == ["_lapack.py:<module>"]


def names_svd(node):
    """Whether an AST node names an `svd`: an attribute, a name or an
    imported alias."""
    return (getattr(node, "attr", None) == "svd"
            or getattr(node, "id", None) == "svd"
            or (isinstance(node, ast.alias)
                and node.name.split(".")[-1] == "svd"))


def test_svd_only_in_the_identifiability_test():
    # `forward._factor_rows` is the one rank rule, of the kernel, of
    # verify's audit and of the Landweber loop's coordinates, none of
    # which calls an SVD; the parametric fit's condition number is the
    # one SVD left
    found = set().union(*(scopes_of(path, names_svd) for path in SOURCES))
    assert sorted(found) == ["inversion.py:reconstruct_parametric"]


def norms_with_ord(path):
    """`file:line` of each call of a `norm` in the module at `path` that
    passes an order, positionally or as `ord`."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "norm"
            and (len(node.args) > 1
                 or any(k.arg == "ord" for k in node.keywords))]


def test_no_norm_takes_an_order():
    # a spectral or nuclear norm is an SVD, and the Frobenius norm is the
    # default: every norm in the source is a Frobenius or vector 2-norm
    assert [hit for path in SOURCES for hit in norms_with_ord(path)] == []


def test_source_lines_fit_79_columns():
    # no linter is installed, so this is the line-length guard
    assert len(SOURCES) >= 10 and len(TESTS) >= 10
    long = [f"{path.parent.name}/{path.name}:{n}"
            for path in SOURCES + TESTS + DEMOS
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []


def unused_imports(path):
    """Names the module at `path` imports but neither reads nor lists in
    its `__all__`."""
    imported, used = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and ast.unparse(node.targets[0]) == "__all__"):
            used.update(ast.literal_eval(node.value))
    return imported - used


# the acceptance tests stay as they were written
UNSCANNED = ("test_acceptance.py",)


def test_every_import_is_used():
    # no linter is installed, so this is the unused-import guard
    unused = [f"{path.parent.name}/{path.name}: {name}"
              for path in SOURCES + TESTS + DEMOS
              if path.name not in UNSCANNED
              for name in sorted(unused_imports(path))]
    assert unused == []


def unread_parameters(path):
    """`file:function(parameter)` of each parameter of a function or
    method of the module at `path` that its body never reads."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [arg.arg for arg in [
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg] if arg is not None]
            read = {name.id for statement in node.body
                    for name in ast.walk(statement)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Load)}
            found += [f"{path.name}:{node.name}({param})"
                      for param in params if param not in read]
    return found


# `file:function` patterns whose signature is a protocol, so that a
# parameter may go unread, and why
UNREAD_ALLOWED = {
    "measurements.py:bounds": "the `bounds(grid)` box that a parametric "
                              "fit asks of every load family",
}


def test_every_parameter_is_read():
    # no linter is installed, so this is the unused-parameter guard
    unread = [entry for path in SOURCES for entry in unread_parameters(path)]
    allowed = {entry: pattern for entry in unread for pattern in UNREAD_ALLOWED
               if fnmatch.fnmatch(entry.split("(")[0], pattern)}
    assert [entry for entry in unread if entry not in allowed] == []
    # each allowance still covers a parameter
    assert set(allowed.values()) == set(UNREAD_ALLOWED)


def definitions(path):
    """`file:name` of each module-level function and class of the module
    at `path`."""
    return [f"{path.name}:{node.name}"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def names_read(path):
    """The names and attributes that the module at `path` reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}


# `file:name` definitions that nothing in the program reads by name, and
# why each stays
UNUSED_ALLOWED = {
    "io.py:save_coefficient": "`perfbench/tracer.py` binds it by string, "
                              "as one of its traced spans",
}


def test_every_definition_is_used():
    # no linter is installed, so this is the dead-code guard: each
    # module-level function and class is read by name in the source, the
    # demos or the benchmark, or is exported
    read = set(beamload.__all__).union(
        *(names_read(path) for path in SOURCES + DEMOS + PERFBENCH))
    unused = [entry for path in SOURCES for entry in definitions(path)
              if entry.split(":")[1] not in read]
    assert [entry for entry in unused if entry not in UNUSED_ALLOWED] == []
    # each allowance still covers a definition
    assert sorted(unused) == sorted(UNUSED_ALLOWED)


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_without_running(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    # importing runs no demo: `main` is only called under __main__
    assert capsys.readouterr().out == ""
