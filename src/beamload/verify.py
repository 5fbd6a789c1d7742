"""Randomized verification harness for every theorem-backed inequality.

Each check compares a discretely evaluated left-hand norm against its
closed-form bound, with a small slack for quadrature error.  Violations
are report content, not errors.  The inequalities are theorems, so a
violated inequality row indicates an implementation bug.  The duality
and finite-difference rows are different: they compare the discretised
continuous adjoint with the discrete operators it stands in for, and
measure its O(h^2) gap, which acceptance criterion 3 shows shrinking by
4 per refinement.  On a coarse grid that gap may exceed the default
tolerance with nothing wrong.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adjoint import check_adjoint_estimates, solve_adjoint
from .assembly import assemble, unit_norm_matrices
from .constants import compute_constants
from .forward import (EPS_FLOOR, check_apriori_estimates, impulse_kernel,
                      solve_forward)
from .model import (DEFAULT_SLACK, CheckRow, LoadField, MeasurementSeries,
                    l2_norm_spacetime, series_l2_norm, spacetime_inner,
                    time_inner)
from .objective import compute_gradient, evaluate_objective

# memory for the displacement, velocity and force histories of one batch
# of suite scenarios
BATCH_BYTES = 4 * 2 ** 20


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


def random_load(grid, rng):
    """Smooth random admissible load from the four lowest space-time modes."""
    x = grid.nodes[:, None]
    t = grid.times[None, :]
    values = np.zeros((grid.n_nodes, grid.n_times))
    for k in range(1, 5):
        a, b = rng.normal(size=2)
        values += (np.sin(k * np.pi * x / grid.length)
                   * (a * np.sin(k * np.pi * t / grid.final_time)
                      + b * np.cos((k - 1) * np.pi * t / grid.final_time)))
    return LoadField(values, grid)


def random_smooth_series(grid, rng):
    """Random smooth time series of three sine modes with its analytic
    derivative, vanishing at t=0 as the adjoint trace argument requires."""
    t = grid.times
    T = grid.final_time
    y = np.zeros_like(t)
    dy = np.zeros_like(t)
    for j in range(1, 4):
        a = rng.normal()
        w = j * np.pi / T
        y += a * np.sin(w * t)
        dy += a * w * np.cos(w * t)
    return y, dy


class _Scenario(NamedTuple):
    """One suite scenario: the inputs of its Newmark passes and the rows
    that read only the kernel, split around the adjoint rows."""

    tag: str
    load: LoadField
    p: np.ndarray
    dp: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    kernel_rows: list
    gradient_row: CheckRow


def _scenario(grid, coeffs, kernel, rng, tag, slack, ct_variant):
    """Draw one suite scenario's inputs (load, Poincare amplitudes, load2,
    truth, p, q) and evaluate its rows that read only the kernel."""
    load = random_load(grid, rng)
    F_norm_sq = l2_norm_spacetime(load) ** 2

    # Rolle-type inequality, closed forms on a random sine sum
    amps = rng.normal(size=3)
    l = grid.length
    lhs_p = sum(a ** 2 * (k * np.pi / l) ** 2 * l / 2
                for k, a in enumerate(amps, start=1))
    rhs_p = (l ** 2 / 2) * sum(a ** 2 * (k * np.pi / l) ** 4 * l / 2
                               for k, a in enumerate(amps, start=1))
    rows = [CheckRow.bound("poincare", tag, lhs_p, rhs_p, slack)]

    # a second load, and twin data from a third for C_J
    load2 = random_load(grid, rng)
    truth = random_load(grid, rng)
    meas = MeasurementSeries(*kernel.outputs(truth.values))
    consts = compute_constants(
        grid.length, grid.final_time, coeffs.bounds,
        C_F=max(1.0, 10.0 * F_norm_sq),
        theta0_norm=series_l2_norm(meas.theta0, grid.dt),
        thetaL_norm=series_l2_norm(meas.thetaL, grid.dt),
        ct_variant=ct_variant)
    dF = l2_norm_spacetime(load - load2)
    e1 = evaluate_objective(load, meas, kernel)
    e2 = evaluate_objective(load2, meas, kernel)

    # Lipschitz continuity of the input-output maps: the data cancel
    # in the difference of the residuals
    for name, r1, r2 in (("io_lipschitz_theta0", e1.p, e2.p),
                         ("io_lipschitz_thetaL", e1.q, e2.q)):
        lhs = series_l2_norm(r1 - r2, grid.dt)
        rows.append(CheckRow.bound(name, tag, lhs, consts.C_L * dF, slack))

    # Lipschitz continuity of the misfit functional
    rows.append(CheckRow.bound("misfit_lipschitz", tag, abs(e1.J - e2.J),
                               consts.C_J * dF, slack))

    # the adjoint estimates' moment data
    p, dp = random_smooth_series(grid, rng)
    q, dq = random_smooth_series(grid, rng)

    # Lipschitz continuity of the gradient, from the misfits above
    diff = compute_gradient(e1) - compute_gradient(e2)
    lhs_g = np.sqrt(spacetime_inner(diff, diff, grid))
    gradient_row = CheckRow.bound("gradient_lipschitz", tag, lhs_g,
                                  consts.L_G * dF, slack)
    return _Scenario(tag, load, p, dp, q, dq, rows, gradient_row)


def verify_inequality_suite(grid, coeffs, n_scenarios=20, seed=0,
                            slack=DEFAULT_SLACK, ct_variant="literal",
                            kernel=None):
    """Run every inequality check over randomized admissible inputs.

    Scenarios run in batches that share one forward and one adjoint
    Newmark pass; a batch holds as many as keep its displacement,
    velocity and force histories within `BATCH_BYTES`.  `kernel` is the
    ImpulseKernel of the grid and coefficients, built when not given.
    Returns a SuiteReport; an empty scenario set yields an empty report.
    """
    rng = np.random.default_rng(seed)
    system = assemble(grid, coeffs)
    # the twin data, misfits and gradients convolve with the kernel
    if kernel is None:
        kernel = impulse_kernel(system, grid)
    unit = unit_norm_matrices(grid)
    batch = max(1, BATCH_BYTES // (3 * 8 * system.n_dofs * grid.n_times))
    rows = []
    for first in range(0, n_scenarios, batch):
        scenarios = [_scenario(grid, coeffs, kernel, rng, f"s{s:02d}", slack,
                               ct_variant)
                     for s in range(first, min(first + batch, n_scenarios))]

        # a-priori bounds: six volume norms and four boundary traces;
        # each pass's states are freed once their rows are taken
        trajs = solve_forward(coeffs, [sc.load for sc in scenarios], grid,
                              system=system)
        apriori = [check_apriori_estimates(traj, coeffs, sc.load, unit=unit,
                                           slack=slack, scenario=sc.tag)
                   for traj, sc in zip(trajs, scenarios)]
        del trajs
        # adjoint solution estimates
        fields = solve_adjoint(coeffs, [sc.p for sc in scenarios],
                               [sc.q for sc in scenarios], grid,
                               system=system)
        adjoint = [check_adjoint_estimates(field, coeffs, sc.dp, sc.dq,
                                           unit=unit, slack=slack,
                                           scenario=sc.tag,
                                           ct_variant=ct_variant)
                   for field, sc in zip(fields, scenarios)]
        del fields

        for sc, apriori_rows, adjoint_rows in zip(scenarios, apriori,
                                                  adjoint):
            rows += (apriori_rows + sc.kernel_rows + adjoint_rows
                     + [sc.gradient_row])
    return SuiteReport(tuple(rows))


def duality_checks(grid, coeffs, n_triples=5, seed=0, tol=1e-3,
                   adjoint_sign=1.0, kernel=None):
    """Duality-identity residuals for random (dF, p, q) triples, on the
    impulse-kernel operators that the misfit and its gradient use.

    `adjoint_sign` = -1 corrupts the adjoint data sign (negative control).
    `kernel` is the ImpulseKernel of the grid and coefficients, built when
    not given.
    """
    rng = np.random.default_rng(seed)
    if kernel is None:
        kernel = impulse_kernel(assemble(grid, coeffs), grid)
    rows = []
    for s in range(n_triples):
        dF = random_load(grid, rng)
        p, _ = random_smooth_series(grid, rng)
        q, _ = random_smooth_series(grid, rng)
        theta0, thetaL = kernel.outputs(dF.values)
        phi = kernel.adjoint(adjoint_sign * p, adjoint_sign * q)
        lhs = time_inner(p, theta0, grid.dt) + time_inner(q, thetaL, grid.dt)
        rhs = spacetime_inner(dF.values, phi, grid)
        residual = abs(lhs - rhs) / (abs(rhs) + EPS_FLOOR)
        rows.append(CheckRow.bound("duality", f"s{s:02d}", residual, tol))
    return SuiteReport(tuple(rows))


def gradient_fd_checks(grid, coeffs, n_directions=5, seed=0, tol=5e-3,
                       kernel=None):
    """Adjoint gradient against central finite differences of the misfit,
    on `kernel`, the ImpulseKernel of the grid and coefficients, built
    when not given."""
    rng = np.random.default_rng(seed)
    if kernel is None:
        kernel = impulse_kernel(assemble(grid, coeffs), grid)
    truth = random_load(grid, rng)
    meas = MeasurementSeries(*kernel.outputs(truth.values))
    F = random_load(grid, rng)
    grad = compute_gradient(evaluate_objective(F, meas, kernel))
    F_norm = l2_norm_spacetime(F)
    rows = []
    for s in range(n_directions):
        D = random_load(grid, rng)
        D_norm = l2_norm_spacetime(D)
        eps = 1e-4 * (F_norm / D_norm if F_norm > 0 else 1.0)
        Jp = evaluate_objective(LoadField(F.values + eps * D.values, grid),
                                meas, kernel).J
        Jm = evaluate_objective(LoadField(F.values - eps * D.values, grid),
                                meas, kernel).J
        fd = (Jp - Jm) / (2 * eps)
        an = spacetime_inner(grad, D.values, grid)
        rel = abs(fd - an) / max(abs(fd), EPS_FLOOR)
        rows.append(CheckRow.bound("gradient_fd", f"s{s:02d}", rel, tol))
    return SuiteReport(tuple(rows))
