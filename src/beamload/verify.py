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

import numpy as np

from .adjoint import AdjointField, check_adjoint_estimates
from .assembly import assemble, unit_norm_matrices
from .constants import compute_constants
from .forward import (EPS_FLOOR, BeamTrajectory, check_apriori_estimates,
                      convolve_t1, cumtrapz, end_rotation_responses,
                      impulse_kernel, solve_forward)
from .model import (DEFAULT_SLACK, CheckRow, LoadField, MeasurementSeries,
                    l2_norm_spacetime, series_l2_norm, spacetime_inner,
                    time_inner)
from .objective import compute_gradient, evaluate_objective


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


def _mode_shapes(grid):
    """The space modes sin(k pi x / l), k = 1..4, (4, n_nodes)."""
    k = np.arange(1, 5)[:, None]
    return np.sin(k * np.pi * grid.nodes / grid.length)


def _random_modal_load(grid, rng):
    """Random histories h (4, n_times) of the four space modes and their
    load sum_k sin(k pi x / l) h_k(t)."""
    t = grid.times
    T = grid.final_time
    h = np.empty((4, grid.n_times))
    values = np.zeros((grid.n_nodes, grid.n_times))
    for k, shape in enumerate(_mode_shapes(grid), start=1):
        a, b = rng.normal(size=2)
        h[k - 1] = (a * np.sin(k * np.pi * t / T)
                    + b * np.cos((k - 1) * np.pi * t / T))
        values += shape[:, None] * h[k - 1]
    return h, LoadField(values, grid)


def random_load(grid, rng):
    """Smooth random admissible load from the four lowest space-time modes."""
    return _random_modal_load(grid, rng)[1]


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


def _convolution_states(velocities, grid, n_fft):
    """The state (u, v) of inputs x (n_in, n_times) as a function of x:
    v convolves x with the n_in velocity responses to impulses at t_1,
    given from t_1 on, and u is its cumulative trapezoid from rest.  The
    spectra are filled in place, so no transform is alive beside them."""
    spectra = np.empty((len(velocities), velocities[0].shape[0],
                        n_fft // 2 + 1), dtype=complex)
    for response, spectrum in zip(velocities, spectra):
        np.fft.rfft(response, n_fft, out=spectrum)
    spectra = spectra.transpose(1, 0, 2)

    def state(x):
        v = convolve_t1(spectra, x, n_fft)
        return cumtrapz(v, grid.dt), v
    return state


def _forward_states(coeffs, grid, system, n_fft):
    """The forward state of the load sum_k sin(k pi x / l) h_k(t) as a
    function of the histories h (4, n_times), from the modes' velocity
    responses of one batched `solve_forward` pass."""
    pulses = np.zeros((4, grid.n_nodes, grid.n_times))
    pulses[:, :, 1] = _mode_shapes(grid)
    trajs = solve_forward(coeffs, [LoadField(f, grid) for f in pulses], grid,
                          system=system)
    velocities = [traj.v[:, 1:] for traj in trajs]
    # the u histories and the loads go before the spectra are allocated
    del pulses, trajs
    convolved = _convolution_states(velocities, grid, n_fft)

    def state(h):
        u, v = convolved(h)
        return BeamTrajectory(
            u=u, v=v, grid=grid, system=system,
            outputs=MeasurementSeries(theta0=u[system.theta0_dof],
                                      thetaL=u[system.thetaL_dof]))
    return state


def audit_operators(grid, coeffs):
    """The ImpulseKernel of the grid and coefficients and the velocity
    responses to unit end-rotation impulses that the adjoint audit
    convolves with, from one assemble and one `end_rotation_responses`
    pass."""
    system = assemble(grid, coeffs)
    u, velocities = end_rotation_responses(system, grid)
    return impulse_kernel(system, grid, u), velocities


def _adjoint_states(grid, velocities, n_fft):
    """The adjoint field of moment data (p, q) as a function of p and q:
    the state of the reversed (p, q) at the end rotations, in tau, from
    the end rotations' velocity responses."""
    convolved = _convolution_states(velocities, grid, n_fft)

    def state(p, q):
        return AdjointField.from_tau(
            *convolved(np.array([p[::-1], q[::-1]])), grid)
    return state


def _scenario(grid, coeffs, kernel, forward_state, unit, rng, tag, slack,
              ct_variant):
    """Draw one suite scenario's inputs (load, Poincare amplitudes, load2,
    truth, p, q) and evaluate all its rows but the adjoint ones.

    Returns the rows and the moment data (p, dp, q, dq) of the adjoint
    rows, which go before the last row.
    """
    h, load = _random_modal_load(grid, rng)
    F_norm_sq = l2_norm_spacetime(load) ** 2

    # a-priori bounds: six volume norms and four boundary traces
    rows = check_apriori_estimates(forward_state(h), coeffs, load, unit=unit,
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
    rows.append(CheckRow.bound("gradient_lipschitz", tag, lhs_g,
                               consts.L_G * dF, slack))
    return rows, (p, dp, q, dq)


def verify_inequality_suite(grid, coeffs, n_scenarios=20, seed=0,
                            slack=DEFAULT_SLACK, ct_variant="literal",
                            operators=None):
    """Run every inequality check over randomized admissible inputs.

    Newmark is linear and shift-invariant, so the state histories that
    the a-priori and adjoint estimates audit are FFT convolutions of each
    scenario's inputs with impulse responses: those of the four space
    modes of `random_load` and of the two end rotations, from a pass
    each.  The end rotations' pass also builds the kernel.  The adjoint
    phase starts once the forward phase's spectra are freed.
    `operators` is the (kernel, velocities) pair of `audit_operators`,
    built when not given.  Returns a SuiteReport; an empty scenario set
    yields an empty report, and builds nothing.
    """
    if not n_scenarios:
        return SuiteReport(())
    rng = np.random.default_rng(seed)
    if operators is None:
        operators = audit_operators(grid, coeffs)
    # the twin data, misfits and gradients convolve with the kernel
    kernel, rotation_velocities = operators
    system = kernel.system
    unit = unit_norm_matrices(grid)
    tags = [f"s{s:02d}" for s in range(n_scenarios)]

    forward_state = _forward_states(coeffs, grid, system, kernel.n_fft)
    scenarios = [_scenario(grid, coeffs, kernel, forward_state, unit, rng,
                           tag, slack, ct_variant) for tag in tags]
    del forward_state

    adjoint_state = _adjoint_states(grid, rotation_velocities, kernel.n_fft)
    rows = []
    for tag, (scenario_rows, (p, dp, q, dq)) in zip(tags, scenarios):
        adjoint_rows = check_adjoint_estimates(
            adjoint_state(p, q), coeffs, dp, dq, unit=unit, slack=slack,
            scenario=tag, ct_variant=ct_variant)
        rows += scenario_rows[:-1] + adjoint_rows + scenario_rows[-1:]
    return SuiteReport(tuple(rows))


def duality_checks(grid, coeffs, n_triples=5, seed=0, tol=1e-3,
                   adjoint_sign=1.0, kernel=None):
    """Duality-identity residuals for random (dF, p, q) triples, on the
    impulse-kernel operators that the misfit and its gradient use.

    `adjoint_sign` = -1 corrupts the adjoint data sign (negative control).
    `kernel` is the ImpulseKernel of the grid and coefficients, built when
    not given.  No triples build nothing.
    """
    if not n_triples:
        return SuiteReport(())
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
    when not given.  No directions build nothing."""
    if not n_directions:
        return SuiteReport(())
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
