"""Randomized verification harness for every theorem-backed inequality.

Each check compares a discretely evaluated left-hand norm against its
closed-form bound, with a small slack for quadrature error.  Violations
are report content, not errors; all inequalities are theorems, so any
violation indicates an implementation bug.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import check_adjoint_estimates, solve_adjoint
from .assembly import assemble, unit_norm_matrices
from .constants import compute_constants
from .forward import (EPS_FLOOR, check_apriori_estimates, impulse_kernel,
                      solve_forward)
from .model import (DEFAULT_SLACK, CheckRow, LoadField, MeasurementSeries,
                    l2_norm_spacetime, series_l2_norm)
from .objective import (compute_gradient, evaluate_objective,
                        spacetime_inner, time_inner)


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple

    @property
    def violations(self):
        return [r for r in self.rows if not r.ok]

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        return (f"{len(self.rows)} checks, "
                f"{len(self.violations)} violations")


def random_load(grid, rng, n_modes=4, scale=1.0):
    """Smooth random admissible load built from low space-time modes."""
    x = grid.nodes[:, None]
    t = grid.times[None, :]
    values = np.zeros((grid.n_nodes, grid.n_times))
    for k in range(1, n_modes + 1):
        a, b = rng.normal(size=2)
        values += (np.sin(k * np.pi * x / grid.length)
                   * (a * np.sin(k * np.pi * t / grid.final_time)
                      + b * np.cos((k - 1) * np.pi * t / grid.final_time)))
    return LoadField(scale * values, grid)


def random_smooth_series(grid, rng, n_modes=3):
    """Random smooth time series with its analytic derivative, vanishing
    at t=0 as the adjoint trace argument requires."""
    t = grid.times
    T = grid.final_time
    y = np.zeros_like(t)
    dy = np.zeros_like(t)
    for j in range(1, n_modes + 1):
        a = rng.normal()
        w = j * np.pi / T
        y += a * np.sin(w * t)
        dy += a * w * np.cos(w * t)
    return y, dy


def verify_inequality_suite(grid, coeffs, n_scenarios=20, seed=0,
                            slack=DEFAULT_SLACK, ct_variant="literal"):
    """Run every inequality check over randomized admissible inputs.

    Returns a SuiteReport; an empty scenario set yields an empty report.
    """
    rng = np.random.default_rng(seed)
    system = assemble(grid, coeffs)
    unit = unit_norm_matrices(grid)
    rows = []
    for s in range(n_scenarios):
        tag = f"s{s:02d}"
        load = random_load(grid, rng)
        F_norm_sq = l2_norm_spacetime(load) ** 2
        traj = solve_forward(coeffs, load, grid, system=system)

        # a-priori bounds: six volume norms and four boundary traces
        rows += check_apriori_estimates(traj, coeffs, load, unit=unit,
                                        slack=slack, scenario=tag)

        # Rolle-type inequality, closed forms on a random sine sum
        amps = rng.normal(size=3)
        l = grid.length
        lhs_p = sum(a ** 2 * (k * np.pi / l) ** 2 * l / 2
                    for k, a in enumerate(amps, start=1))
        rhs_p = (l ** 2 / 2) * sum(a ** 2 * (k * np.pi / l) ** 4 * l / 2
                                   for k, a in enumerate(amps, start=1))
        rows.append(CheckRow.bound("poincare", tag, lhs_p, rhs_p, slack))

        # a second load, and twin data from a third for C_J
        load2 = random_load(grid, rng)
        truth = random_load(grid, rng)
        # output-only solves convolve with the kernel
        kernel = impulse_kernel(system, grid)
        meas = MeasurementSeries(*kernel.outputs(truth.values))
        consts = compute_constants(
            grid.length, grid.final_time, coeffs.bounds,
            C_F=max(1.0, 10.0 * F_norm_sq),
            theta0_norm=series_l2_norm(meas.theta0, grid.dt),
            thetaL_norm=series_l2_norm(meas.thetaL, grid.dt),
            ct_variant=ct_variant)
        dF = l2_norm_spacetime(load - load2)

        # Lipschitz continuity of the input-output maps
        for name, o1, o2 in zip(("io_lipschitz_theta0",
                                 "io_lipschitz_thetaL"),
                                (traj.outputs.theta0, traj.outputs.thetaL),
                                kernel.outputs(load2.values)):
            lhs = series_l2_norm(o1 - o2, grid.dt)
            rows.append(CheckRow.bound(name, tag, lhs, consts.C_L * dF,
                                       slack))

        # Lipschitz continuity of the misfit functional
        e1 = evaluate_objective(load, meas, coeffs, grid, system=system)
        e2 = evaluate_objective(load2, meas, coeffs, grid, system=system)
        rows.append(CheckRow.bound("misfit_lipschitz", tag, abs(e1.J - e2.J),
                                   consts.C_J * dF, slack))

        # adjoint solution estimates
        p, dp = random_smooth_series(grid, rng)
        q, dq = random_smooth_series(grid, rng)
        adj = solve_adjoint(coeffs, p, q, grid, system=system, dp=dp, dq=dq)
        rows += check_adjoint_estimates(adj, coeffs, unit=unit, slack=slack,
                                        scenario=tag, ct_variant=ct_variant)

        # Lipschitz continuity of the gradient, from the misfits above
        g1, _ = compute_gradient(load, meas, coeffs, grid, evaluation=e1)
        g2, _ = compute_gradient(load2, meas, coeffs, grid, evaluation=e2)
        diff = g1.values - g2.values
        lhs_g = np.sqrt(spacetime_inner(diff, diff, grid))
        rows.append(CheckRow.bound("gradient_lipschitz", tag, lhs_g,
                                   consts.L_G * dF, slack))
    return SuiteReport(tuple(rows))


def duality_checks(grid, coeffs, n_triples=5, seed=0, tol=1e-3,
                   adjoint_sign=1.0):
    """Duality-identity residuals for random (dF, p, q) triples.

    `adjoint_sign` = -1 corrupts the adjoint data sign (negative control).
    """
    rng = np.random.default_rng(seed)
    system = assemble(grid, coeffs)
    rows = []
    for s in range(n_triples):
        dF = random_load(grid, rng)
        p, _ = random_smooth_series(grid, rng)
        q, _ = random_smooth_series(grid, rng)
        traj = solve_forward(coeffs, dF, grid, system=system)
        adj = solve_adjoint(coeffs, adjoint_sign * p, adjoint_sign * q,
                            grid, system=system)
        lhs = (time_inner(p, traj.outputs.theta0, grid)
               + time_inner(q, traj.outputs.thetaL, grid))
        rhs = spacetime_inner(dF.values, adj.full_values(), grid)
        residual = abs(lhs - rhs) / (abs(rhs) + EPS_FLOOR)
        rows.append(CheckRow.bound("duality", f"s{s:02d}", residual, tol))
    return SuiteReport(tuple(rows))


def gradient_fd_checks(grid, coeffs, n_directions=5, seed=0, tol=5e-3):
    """Adjoint gradient against central finite differences of the misfit."""
    rng = np.random.default_rng(seed)
    system = assemble(grid, coeffs)
    truth = random_load(grid, rng)
    meas = MeasurementSeries(*impulse_kernel(system, grid).outputs(
        truth.values))
    F = random_load(grid, rng)
    grad, _ = compute_gradient(F, meas, coeffs, grid, system=system)
    F_norm = l2_norm_spacetime(F)
    rows = []
    for s in range(n_directions):
        D = random_load(grid, rng)
        D_norm = l2_norm_spacetime(D)
        eps = 1e-4 * (F_norm / D_norm if F_norm > 0 else 1.0)
        Jp = evaluate_objective(LoadField(F.values + eps * D.values, grid),
                                meas, coeffs, grid, system=system).J
        Jm = evaluate_objective(LoadField(F.values - eps * D.values, grid),
                                meas, coeffs, grid, system=system).J
        fd = (Jp - Jm) / (2 * eps)
        an = spacetime_inner(grad.values, D.values, grid)
        rel = abs(fd - an) / max(abs(fd), EPS_FLOOR)
        rows.append(CheckRow.bound("gradient_fd", f"s{s:02d}", rel, tol))
    return SuiteReport(tuple(rows))
