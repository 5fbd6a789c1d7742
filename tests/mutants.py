"""Mutation check of the tier-1 suite.

Applies each one-line source mutant of `MUTANTS`, one at a time, to a
fresh copy of the repository in a temporary directory, runs the tier-1
suite there but for `test_mutants.py`, and compares its failing tests
with those of an unmutated copy (the baseline, where criterion 6
fails).  A mutant is killed when the two sets differ.  With `-x` each
mutant's run stops at its first failure, with the baseline's failures
deselected, and a mutant is killed when anything fails.  A mutant
whose text no longer occurs exactly once in its file is reported as
stale, so the list is kept in step with the source.  A killed mutant
is reported with its number of new failures and the first of them
outside `test_readme_record.py`, whose byte pins fail on nearly any
change of a number, or "record only" when the record alone fails
(under `-x`: when the run stopped on the record).  The first is taken
under `tests/` before `perfbench/`, whose traced workloads run most of
the program and so fail with many mutants.  Not collected by
tier-1 (the name does not match `test_*.py`).  Run from the repository
root:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py -x         # every mutant, stopping early
    python3 tests/mutants.py kappa_lower_not_strict read_only_dropped

The copies, and the temporary files of the pytest run in each, go
under an explicit TMPDIR, else under /dev/shm when that is a writable
directory, else under the system's temporary directory; the harness
prints which.  Each copy is removed, with its run's files, before the
next is made.  Each run takes one tier-1 run, and less for a killed
mutant under `-x`.  On 2 vCPUs, `-x` over 73 mutants took 4.4 min
with the copies on tmpfs, against 21.8 min for 71 mutants on an ext4
root mounted with `discard`, where the runs' files waited on the disk;
the CPU time was 5.8 min both ways.  The exit code is 1 when a mutant
survives or is stale, else 0.
"""

import argparse
import os
import pathlib
import shutil
import signal
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
     "x[:, 1::2] -= series[:, :1]", "x[:, 1::2] += series[:, :1]"),
    ("force_train_first_sample_dropped", "src/beamload/forward.py",
     "x[:, 0::2] += series[:, :1]", "x[:, 2::2] += series[:, :1]"),
    ("newmark_a0_scaled", "src/beamload/forward.py",
     "a0, a1, a2 = 4.0 / dt ** 2,",
     "a0, a1, a2 = 4.0 / dt ** 2 * (1 + 1e-8),"),
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
     "C[list(traces)]", "C[[dof - 1 for dof in traces]]"),
    ("newmark_velocity_rate_scaled", "src/beamload/forward.py",
     "np.multiply(a1, vn, vn)", "np.multiply(a1 * (1 + 1e-6), vn, vn)"),
    ("newmark_f_k_dropped", "src/beamload/forward.py",
     "np.add(forces[k + 1], forces[k], b)", "np.copyto(b, forces[k + 1])"),
    ("newmark_v_k_sign_flipped", "src/beamload/forward.py",
     "np.subtract(vn, vk, vn)", "np.add(vn, vk, vn)"),
    ("newmark_mass_check_dropped", "src/beamload/forward.py",
     '_cholesky(M, "mass")', "None"),
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
    ("factor_rows_projection_added", "src/beamload/forward.py",
     "np.subtract(rows, residual, out=residual)",
     "np.add(rows, residual, out=residual)"),
    ("full_rank_basis_is_identity", "src/beamload/forward.py",
     "return rows @ W.T, W", "return W @ W.T, W"),
    ("lapack_probe_dropped", "src/beamload/_lapack.py",
     "if not _exact_on_probe():", "if False:"),
    ("newmark_a2_scaled", "src/beamload/forward.py",
     "- K, a2 * M", "- K, a2 * M * (1 + 1e-6)"),
    ("spline_band_term_dropped", "src/beamload/measurements.py",
     "lam * (b[:-1] * a[1:] + c[:-1] * b[1:])", "lam * (b[:-1] * a[1:])"),
    ("mesh_count_floor_lowered", "src/beamload/cli.py",
     "lambda v: v >= 4, \"below 4\"", "lambda v: v >= 3, \"below 4\""),
    ("table_row_check_long_accepted", "src/beamload/io.py",
     "if data.shape[0] != n_rows:",
     "if data.shape[0] not in (n_rows, n_rows + 1):"),
    ("gradient_not_reversed_back", "src/beamload/forward.py",
     "self._convolve(self.adjoint_t1, pq[:, ::-1])[:, ::-1]",
     "self._convolve(self.adjoint_t1, pq[:, ::-1])"),
    ("loop_rank_one_short", "src/beamload/inversion.py",
     "self.V = V = W.T", "W = W[:-1]; self.V = V = W.T"),
    ("loop_stack_unscaled", "src/beamload/inversion.py",
     "A / (np.linalg.norm(A) or 1.0)", "A"),
    ("load_from_loop_coordinates", "src/beamload/inversion.py",
     "kernel.field_basis @ kernel.adjoint_series(Z[coords.q:])",
     "kernel.field_basis @ coords.V @ Z[:coords.q]"),
    ("output_map_rows_shifted", "src/beamload/forward.py",
     "coupling=load_basis[1:-1].T", "coupling=load_basis[:-2].T"),
    ("field_gram_unweighted", "src/beamload/forward.py",
     "field_basis.T @ (w_x[:, None] * field_basis)",
     "field_basis.T @ field_basis"),
    ("adjoint_phit_bound_doubled", "src/beamload/adjoint.py",
     "eT * b.r0 / (2.0 * b.rho0)", "eT * b.r0 / b.rho0"),
    ("radial_factor_unsquared", "src/beamload/model.py",
     "np.sqrt(C_F) / norm", "C_F / norm"),
    ("beam_kernel_key_ignores_backend", "src/beamload/forward.py",
     "key = (grid, coeffs.bounds, _lapack.CONFIG,",
     "key = (grid, coeffs.bounds,"),
    ("beam_kernel_key_drops_kappa", "src/beamload/forward.py",
     '("rho_A", "mu", "T_r", "r", "kappa")', '("rho_A", "mu", "T_r", "r")'),
    ("audit_rebuilt_every_call", "src/beamload/verify.py",
     'if "audit" not in store:', "if True:"),
    ("audit_output_bases_rebuilt", "src/beamload/verify.py",
     'return store["audit"]',
     'return store["audit"][:3] + _output_bases(grid, store["kernel"])'),
    ("load_gram_space_weights_dropped", "src/beamload/verify.py",
     "shapes * w_x @ shapes.T", "shapes @ shapes.T"),
    ("audit_kept_across_beams", "src/beamload/forward.py",
     "_beam_kernels.clear()", "pass"),
    ("misfit_q_weight_doubled", "src/beamload/objective.py",
     "0.5 * time_inner(q, q, grid.dt)", "time_inner(q, q, grid.dt)"),
    ("root_always_bisects", "src/beamload/measurements.py",
     "if phi * phi < xi and (1 - phi) ** 2 < 1 - xi:", "if False:"),
    ("root_tolerance_coarse", "src/beamload/measurements.py",
     "ROOT_XTOL = 2e-12", "ROOT_XTOL = 2e-6"),
    ("numeric_failure_exits_config", "src/beamload/cli.py",
     "return EXIT_NUMERIC", "return EXIT_CONFIG"),
    ("floating_point_error_unmapped", "src/beamload/cli.py",
     "except (DivergenceError, FloatingPointError, OverflowError,",
     "except (DivergenceError, OverflowError,"),
    ("kernel_adjoint_sign_flipped", "src/beamload/forward.py",
     "return nodal(self.field_basis @", "return nodal(-self.field_basis @"),
    ("band_product_offsets_reversed", "src/beamload/forward.py",
     'np.einsum("rj,rj...->r...", W, V)',
     'np.einsum("rj,rj...->r...", W[:, ::-1], V[:, ::-1])'),
    ("bound_matvec_x_check_dropped", "src/beamload/_lapack.py",
     "_vector(x, n)\n    _vector(y, n)", "_vector(y, n)"),
    ("backtrack_never_halves", "src/beamload/inversion.py",
     "step *= 0.5", "step *= 1.0"),
    ("modal_space_mode_scaled", "src/beamload/measurements.py",
     "k * np.pi * x", "k / np.pi * x"),
    ("fixed_guard_after_two_rises", "src/beamload/inversion.py",
     "n >= 3 and last[0] < last[1] < last[2] < last[3]",
     "n >= 2 and last[-3] < last[-2] < last[-1]"),
    ("adjoint_moment_sign_flipped", "src/beamload/adjoint.py",
     "forces[:, system.theta0_dof] = p[::-1]",
     "forces[:, system.theta0_dof] = -p[::-1]"),
    ("adjoint_rate_sign_kept", "src/beamload/adjoint.py",
     "phi_t=(-rate)[:, ::-1]", "phi_t=rate[:, ::-1]"),
    ("block_diagonal_keeps_corners", "src/beamload/forward.py",
     "ab[kd - d, :d] = 0.0", "pass"),
    ("table_writer_16_digits", "src/beamload/io.py",
     '["%.17g"] * len(columns)', '["%.16g"] * len(columns)'),
    ("fft_length_2_5_7_smooth", "src/beamload/forward.py",
     "p35 *= 3", "p35 *= 7"),
    ("scipy_optimize_imported_at_load", "src/beamload/inversion.py",
     "import numpy as np\n", "import numpy as np\nimport scipy.optimize\n"),
    ("measurement_grid_check_dropped", "src/beamload/model.py",
     "if self.n_times != grid.n_times:", "if False:"),
    ("factored_split_fixed_at_two", "src/beamload/forward.py",
     "np.hsplit(rows, n_in)", "np.hsplit(rows, 2)"),
    ("suite_c2_overlaps_c1", "src/beamload/verify.py",
     "draws[:, 11:19]", "draws[:, 7:15]"),
    ("apriori_linf_max_is_min", "src/beamload/forward.py",
     "np.max(ut_sq, -1)", "np.min(ut_sq, -1)"),
    ("suite_qp_from_dp_alone", "src/beamload/verify.py",
     "coeffs, dp, dq, slack", "coeffs, dp, dp, slack"),
    ("coordinates_response_swapped", "src/beamload/verify.py",
     "zip(spectra, series, Y)", "zip(spectra[::-1], series, Y)"),
    ("estimate_rows_tags_reversed", "src/beamload/forward.py",
     "zip(tags, np.transpose(lhs)", "zip(tags[::-1], np.transpose(lhs)"),
    ("modal_load_histories_swapped", "src/beamload/verify.py",
     "pairs[:, :1] * histories[:, 0] + pairs[:, 1:] * histories[:, 1]",
     "pairs[:, :1] * histories[:, 1] + pairs[:, 1:] * histories[:, 0]"),
    ("cli_inverts_noisy_series", "src/beamload/cli.py",
     "truth, _, _, smooth = _twin_data(", "truth, _, smooth, _ = _twin_data("),
    ("zero_noise_writes_noisy_files", "src/beamload/cli.py",
     'if cfg["noise.delta_rel"] > 0:', 'if cfg["noise.delta_rel"] >= 0:'),
    ("smoothing_target_unsplit", "src/beamload/measurements.py",
     "target = series.noise_delta / np.sqrt(2.0)",
     "target = series.noise_delta"),
    ("apriori_unpacking_ut_uxx_swapped", "src/beamload/forward.py",
     "ut_sq, uxx_sq, uxxt_sq, th0, th0_t, thL, thL_t = series",
     "uxx_sq, ut_sq, uxxt_sq, th0, th0_t, thL, thL_t = series"),
    ("adjoint_unpacking_pxx_pt_swapped", "src/beamload/adjoint.py",
     "pxx_sq, pt_sq, pxxt_sq = series", "pt_sq, pxx_sq, pxxt_sq = series"),
]

# tier-1 but `test_mutants.py`, which fails on every mutated copy: its
# check that each mutant's text occurs once would kill them all
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutants.py"]
RECORD = "tests/test_readme_record.py::"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".perfbench_runs", "*.egg-info", "build")


def copies_dir():
    """Where the copies go: an explicit TMPDIR, else /dev/shm when it is
    a writable directory (tmpfs, so that no file waits on a disk), else
    the system's temporary directory."""
    shm = "/dev/shm"
    if ("TMPDIR" not in os.environ and os.path.isdir(shm)
            and os.access(shm, os.W_OK | os.X_OK)):
        return shm
    return tempfile.gettempdir()


def failing_tests(tree, options=()):
    """The failing and erroring test IDs of one tier-1 run in `tree`,
    whose temporary files go beside `tree`, so that they are removed
    with it."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               TMPDIR=str(tree.parent))
    out = subprocess.run(TIER1 + list(options), cwd=tree, env=env,
                         capture_output=True, text=True).stdout
    return {line.split(" - ")[0].split(" ", 1)[1]
            for line in out.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def run_copy(mutant=None, options=()):
    """Failing tests of a fresh copy of the repository, with `mutant`
    applied; None when the mutant's text is not in its file once.  The
    copy is removed before the next one is made."""
    with tempfile.TemporaryDirectory(prefix="mutant-",
                                     dir=copies_dir()) as tmp:
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
    # SIGTERM unwinds as an exit, so that `subprocess.run` kills its
    # pytest and `run_copy` removes its copy of the repository
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-x", action="store_true",
                        help="stop each mutant's run at its first failure")
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    print(f"copies under {copies_dir()}", flush=True)
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
            # a test under tests/ names the kill before perfbench's
            behaviour = sorted((test for test in new
                                if not test.startswith(RECORD)),
                               key=lambda test: not test.startswith("tests/"))
            verdict = "killed"
            detail = (f"{len(new)} tests, first "
                      f"{behaviour[0] if behaviour else 'record only'}")
        clean = clean and verdict == "killed"
        print(f"{mutant[0]:28s} {verdict:8s} {detail}", flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
