"""Mutation check of the tier-1 suite.

Applies each one-line source mutant of `MUTANTS`, one at a time, to a
fresh copy of the repository in a temporary directory, runs the tier-1
suite there but for `test_mutants.py`, and compares its failing tests
with those of an unmutated copy (the baseline, where criterion 6
fails).  A mutant is killed when the two sets differ.  With `-x` each
mutant's run stops at its first failure, with the baseline's failures
deselected, and a mutant is killed when anything fails.  A mutant
whose text no longer occurs exactly once in its file is reported as
stale, so the list is kept in step with the source.  Not collected by
tier-1 (the name does not match `test_*.py`).  Run from the repository
root:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py -x         # every mutant, stopping early
    python3 tests/mutants.py kappa_lower_not_strict read_only_dropped

Each run takes one tier-1 run, about 15-20 s on 2 vCPUs, and less for a
killed mutant under `-x`.  The exit code is 1 when a mutant survives or
is stale, else 0.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (name, file, text, mutated text): each text occurs once in its file
MUTANTS = [
    ("kappa_lower_not_strict", "src/beamload/model.py",
     '("kappa", "kappa0", "kappa1", True)',
     '("kappa", "kappa0", "kappa1", False)'),
    ("upper_bound_inclusive", "src/beamload/model.py",
     "values > hi)", "values >= hi)"),
    ("finiteness_dropped", "src/beamload/model.py",
     '("finiteness", ~np.isfinite(values))',
     '("finiteness", np.zeros(values.shape, bool))'),
    ("read_only_dropped", "src/beamload/model.py",
     "values.flags.writeable = False", "pass"),
    ("grid_length_check_dropped", "src/beamload/assembly.py",
     "if len(coeffs.rho_A) != n_nodes:", "if False:"),
    ("force_train_sign_flipped", "src/beamload/forward.py",
     "train = (-1.0) ** np.arange(n)", "train = -(-1.0) ** np.arange(n)"),
    ("newmark_a0_scaled", "src/beamload/forward.py",
     "a0, a1, a2, h = 4.0 / dt ** 2,",
     "a0, a1, a2, h = 4.0 / dt ** 2 * (1 + 1e-8),"),
    ("morozov_strict", "src/beamload/inversion.py",
     "if 2.0 * J <= morozov_sq:", "if 2.0 * J < morozov_sq:"),
    ("table_row_check_off_by_one", "src/beamload/io.py",
     "if data.shape[0] != n_rows:",
     "if data.shape[0] not in (n_rows, n_rows - 1):"),
    ("gram_mass_is_stiffness", "src/beamload/verify.py",
     "fill(grams[0], unit[0])", "fill(grams[0], unit[1])"),
    ("displacement_cumtrapz_dropped", "src/beamload/verify.py",
     "y[:] = cumtrapz(y, dt)", "y[:] = y"),
    ("trace_row_shifted", "src/beamload/verify.py",
     "C[dof] @ Y", "C[dof - 1] @ Y"),
    ("newmark_h_scaled", "src/beamload/forward.py",
     "4.0 / dt, dt / 2.0", "4.0 / dt, dt / 2.0 * (1 + 1e-6)"),
    ("trapezoid_end_weight_scaled", "src/beamload/model.py",
     "w[0] = w[-1] = 0.5 * spacing",
     "w[0], w[-1] = 0.5 * spacing, 0.5 * spacing * (1 + 1e-6)"),
    ("ce_sq_scaled", "src/beamload/constants.py",
     "Ce_sq = np.exp(final_time / bounds.rho0)",
     "Ce_sq = np.exp(final_time / bounds.rho0) * (1 + 1e-6)"),
    ("rank_tolerance_scaled", "src/beamload/forward.py",
     "tol_sq = (max(m, n) * EPS) ** 2",
     "tol_sq = (max(m, n) * EPS * 1e3) ** 2"),
    ("one_orthonormalization_pass", "src/beamload/forward.py",
     "for _ in range(2):", "for _ in range(1):"),
    ("pivot_floor_raised", "src/beamload/forward.py",
     "floor = max(floor, 16.0 * EPS * d.max())",
     "floor = max(floor, 1e-8 * d.max())"),
    ("full_rank_check_inverted", "src/beamload/forward.py",
     "if r == m:", "if r < m:"),
    ("lapack_probe_dropped", "src/beamload/_lapack.py",
     "if not _exact_on_probe():", "if False:"),
    ("newmark_a2_scaled", "src/beamload/forward.py",
     "2.0 / dt, 4.0 / dt,", "2.0 / dt, 4.0 / dt * (1 + 1e-6),"),
    ("spline_band_term_dropped", "src/beamload/measurements.py",
     "lam * (b[:-1] * a[1:] + c[:-1] * b[1:])", "lam * (b[:-1] * a[1:])"),
    ("mesh_count_floor_lowered", "src/beamload/cli.py",
     "lambda v: v >= 4, \"below 4\"", "lambda v: v >= 3, \"below 4\""),
    ("table_row_check_long_accepted", "src/beamload/io.py",
     "if data.shape[0] != n_rows:",
     "if data.shape[0] not in (n_rows, n_rows + 1):"),
    ("gradient_not_reversed_back", "src/beamload/inversion.py",
     "adjoint_series(residual)[:, ::-1]", "adjoint_series(residual)"),
    ("output_map_rows_shifted", "src/beamload/inversion.py",
     "self.P = load_basis[1:-1].T", "self.P = load_basis[:-2].T"),
    ("radial_factor_unsquared", "src/beamload/model.py",
     "np.sqrt(C_F) / norm", "C_F / norm"),
]

# tier-1 but `test_mutants.py`, which fails on every mutated copy: its
# check that each mutant's text occurs once would kill them all
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutants.py"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".perfbench_runs", "*.egg-info", "build")


def failing_tests(tree, options=()):
    """The failing and erroring test IDs of one tier-1 run in `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(TIER1 + list(options), cwd=tree, env=env,
                         capture_output=True, text=True).stdout
    return {line.split(" - ")[0].split(" ", 1)[1]
            for line in out.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def run_copy(mutant=None, options=()):
    """Failing tests of a fresh copy of the repository, with `mutant`
    applied; None when the mutant's text is not in its file once."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if mutant is not None:
            _, path, old, new = mutant
            source = (tree / path).read_text()
            if source.count(old) != 1:
                return None
            (tree / path).write_text(source.replace(old, new))
        return failing_tests(tree, options)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-x", action="store_true",
                        help="stop each mutant's run at its first failure")
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    baseline = run_copy()
    print(f"baseline: {len(baseline)} failing: {', '.join(sorted(baseline))}")
    options, expected = (), baseline
    if args.x:
        options = ["-x"] + [f"--deselect={test}" for test in baseline]
        expected = set()
    clean = True
    for mutant in MUTANTS:
        if args.names and mutant[0] not in args.names:
            continue
        failing = run_copy(mutant, options)
        if failing is None:
            verdict, detail = "STALE", "text not found once"
        elif failing == expected:
            verdict, detail = "SURVIVED", ""
        else:
            new = sorted(failing ^ expected)
            verdict = "killed"
            detail = f"{len(new)} tests, first {new[0]}"
        clean = clean and verdict == "killed"
        print(f"{mutant[0]:28s} {verdict:8s} {detail}", flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
