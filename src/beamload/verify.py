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

from .adjoint import AdjointField, check_adjoint_estimates, solve_adjoint
from .assembly import assemble, unit_norm_matrices
from .constants import compute_constants
from .forward import (EPS_FLOOR, BeamTrajectory, check_apriori_estimates,
                      convolve_t1, cumtrapz, impulse_kernel, solve_forward)
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


def _spectra(responses, n_fft):
    """`n_fft`-point spectra (n_dofs, n_in, frequency) of responses
    (n_dofs, n_times) to unit impulses at t_1, each transformed in place,
    so that no transform is alive beside the spectra."""
    out = np.empty((len(responses), responses[0].shape[0], n_fft // 2 + 1),
                   dtype=complex)
    for response, spectrum in zip(responses, out):
        # the response to the impulse at t_1 starts one step late
        np.fft.rfft(response[:, 1:], n_fft, out=spectrum)
    return out.transpose(1, 0, 2)


def _forward_states(coeffs, grid, system, n_fft):
    """The forward state of the load sum_k sin(k pi x / l) h_k(t) as a
    function of the histories h (4, n_times).

    Its velocity is the convolution of h with the modes' velocity
    responses, from one batched `solve_forward` pass; its displacement is
    the cumulative trapezoid of the velocity from rest.
    """
    pulses = np.zeros((4, grid.n_nodes, grid.n_times))
    pulses[:, :, 1] = _mode_shapes(grid)
    trajs = solve_forward(coeffs, [LoadField(f, grid) for f in pulses], grid,
                          system=system)
    velocities = [traj.v for traj in trajs]
    del pulses, trajs
    load_t1 = _spectra(velocities, n_fft)

    def state(h):
        v = convolve_t1(load_t1, h, n_fft)
        u = cumtrapz(v, grid.dt)
        return BeamTrajectory(
            u=u, v=v, grid=grid, system=system,
            outputs=MeasurementSeries(theta0=u[system.theta0_dof],
                                      thetaL=u[system.thetaL_dof]))
    return state


def _adjoint_states(coeffs, grid, system, n_fft):
    """The adjoint field of moment data (p, q) as a function of p and q.

    `solve_adjoint` integrates the reversed data in tau = T - t.  The
    rate phi_t = -d phi / d tau is the convolution of the reversed data
    with the responses to unit end moments at tau_1, from one batched
    `solve_adjoint` pass, and -phi is its cumulative trapezoid from rest
    at tau = 0.
    """
    # p of case 0 and q of case 1 are units at t_{n-2}, which is tau_1
    pq = np.zeros((2, 2, grid.n_times))
    pq[[0, 1], [0, 1], -2] = 1.0
    rates = [field.phi_t[:, ::-1]
             for field in solve_adjoint(coeffs, *pq, grid, system=system)]
    moment_t1 = _spectra(rates, n_fft)

    def state(p, q):
        rate = convolve_t1(moment_t1, np.array([p[::-1], q[::-1]]), n_fft)
        return AdjointField(phi=-cumtrapz(rate, grid.dt)[:, ::-1],
                            phi_t=rate[:, ::-1], grid=grid)
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
                            kernel=None):
    """Run every inequality check over randomized admissible inputs.

    Newmark is linear and shift-invariant, so the state histories that
    the a-priori and adjoint estimates audit are FFT convolutions of each
    scenario's inputs with impulse responses: those of the four space
    modes of `random_load`, from one forward pass, and those of the two
    end moments, from one adjoint pass.  The adjoint phase starts once
    the forward phase's spectra are freed.  `kernel` is the ImpulseKernel
    of the grid and coefficients, built when not given.  Returns a
    SuiteReport; an empty scenario set yields an empty report.
    """
    rng = np.random.default_rng(seed)
    system = assemble(grid, coeffs)
    # the twin data, misfits and gradients convolve with the kernel
    if kernel is None:
        kernel = impulse_kernel(system, grid)
    unit = unit_norm_matrices(grid)
    tags = [f"s{s:02d}" for s in range(n_scenarios)]

    forward_state = _forward_states(coeffs, grid, system, kernel.n_fft)
    scenarios = [_scenario(grid, coeffs, kernel, forward_state, unit, rng,
                           tag, slack, ct_variant) for tag in tags]
    del forward_state

    adjoint_state = _adjoint_states(coeffs, grid, system, kernel.n_fft)
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
