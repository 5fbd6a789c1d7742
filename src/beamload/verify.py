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

The suite's random inputs span fixed bases: every load is a combination
of 8 space-time modes and every moment series of 3 sine modes.  The
discrete solvers are linear, so each audited norm series of a scenario
is a quadratic form c' G(t) c in the coefficients c it draws, and each
output a linear one.  The suite builds the Gram series G of the bases
once per call and evaluates every scenario from them.
"""

from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .adjoint import adjoint_rows
from .assembly import assemble, unit_norm_matrices
from .constants import compute_constants
from .forward import (EPS_FLOOR, _factor_rows, apriori_rows, band_product,
                      convolve_t1, cumtrapz, end_rotation_responses,
                      impulse_kernel, kernel_fft_length, solve_forward)
from .model import (DEFAULT_SLACK, CheckRow, LoadField, MeasurementSeries,
                    l2_norm_spacetime, series_l2_norm, spacetime_inner,
                    time_inner)
from .objective import compute_gradient, evaluate_objective, misfit


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple

    def __add__(self, other):
        return SuiteReport(self.rows + other.rows)

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


def _load_histories(grid):
    """The time factors of the load basis, (4, 2, n_times): sin(k pi t / T)
    and cos((k - 1) pi t / T) of space mode k = 1..4."""
    k = np.arange(1, 5)[:, None]
    t, T = grid.times, grid.final_time
    return np.stack([np.sin(k * np.pi * t / T),
                     np.cos((k - 1) * np.pi * t / T)], axis=1)


def _modal_load(grid, c, factors=None):
    """The load sum_k sin(k pi x / l) (a_k sin(k pi t / T)
    + b_k cos((k - 1) pi t / T)) of coefficients c = (a_1, b_1, ..., a_4,
    b_4).  `factors` is the pair of `_mode_shapes` and `_load_histories`
    of the grid, made when not given."""
    shapes, histories = factors or (_mode_shapes(grid),
                                    _load_histories(grid))
    pairs = np.reshape(c, (4, 2))
    h = pairs[:, :1] * histories[:, 0] + pairs[:, 1:] * histories[:, 1]
    return LoadField(np.einsum("kn,kt->nt", shapes, h), grid)


def random_load(grid, rng):
    """Smooth random admissible load from the four lowest space-time modes."""
    return _modal_load(grid, rng.normal(size=8))


def _moment_modes(grid):
    """The moment basis sin(j pi t / T), j = 1..3, (3, n_times)."""
    w = np.arange(1, 4)[:, None] * np.pi / grid.final_time
    return np.sin(w * grid.times)


def _moment_factors(grid):
    """The pair of `_moment_modes` and the cosines cos(j pi t / T) of
    their derivatives, each (3, n_times)."""
    w = np.arange(1, 4)[:, None] * np.pi / grid.final_time
    return _moment_modes(grid), np.cos(w * grid.times)


def _moment(grid, a, factors=None):
    """The series sum_j a_j sin(j pi t / T) and its analytic derivative.
    `factors` is the `_moment_factors` pair of the grid, made when not
    given."""
    modes, cosines = factors or _moment_factors(grid)
    y = np.zeros_like(grid.times)
    dy = np.zeros_like(grid.times)
    for j, (aj, mode, cos) in enumerate(zip(a, modes, cosines), start=1):
        y += aj * mode
        dy += aj * (j * np.pi / grid.final_time) * cos
    return y, dy


def random_smooth_series(grid, rng):
    """Random smooth time series of three sine modes with its analytic
    derivative, vanishing at t=0 as the adjoint trace argument requires."""
    return _moment(grid, rng.normal(size=3))


def _coordinates(velocity, inputs, n_fft):
    """(C, Y) with the velocity states of the input series (n_per,
    n_times) equal to C Y[p]: `velocity` is the response (n_dofs,
    n_times - 1) to a unit impulse at t_1, given from t_1 on, factored
    as C W by `_factor_rows` (C the identity at full rank), and Y (n_per,
    r, n_times) convolves each input with the r rows of W."""
    C, W = _factor_rows(velocity)
    Y = np.empty((len(inputs),) + W.shape[:1] + inputs.shape[1:])
    spectrum = rfft(W, n_fft)[:, None]
    del W
    for x, y in zip(inputs, Y):
        y[:] = convolve_t1(spectrum, x[None], n_fft)
    return np.eye(Y.shape[1]) if C is None else C, Y


def _norm_bases(velocities, series, n_fft, unit, dt, traces=()):
    """The Gram series G(t)[i, j] = x_i(t)' A x_j(t) of int w^2, int
    w_xx^2 and int w_xxt^2 dx over the velocity states w, and the bases
    (n_basis, n_times) of the displacement and velocity at each of the
    `traces` DOFs.  The states of series[k] (n_per, n_times) convolve
    with velocities[k], in basis order k, p.

    The responses are of low rank, since the damping kills the high
    modes, so each state is held as coordinates, C_k Y_k[p] of
    `_coordinates`, and each Gram block as Y_k' (C_k' A C_l) Y_l, with A
    C_l formed first as `quadratic_forms` does.  `velocities` is a list,
    emptied as each response is factored.  The displacement is the
    velocity's cumulative trapezoid from rest, which average-acceleration
    Newmark satisfies exactly, so its coordinates are the cumtrapz of
    Y_k; a trace line is the DOF's row of C_k times them."""
    factors = [_coordinates(velocities.pop(0), inputs, n_fft)
               for inputs in series]
    n_per, n_times = series.shape[1:]
    n_basis = len(factors) * n_per
    rows = [slice(k * n_per, (k + 1) * n_per) for k in range(len(factors))]
    # int w^2, int w_xx^2, int w_xxt^2, in the order of `apriori_series`
    grams = np.empty((3, n_times, n_basis, n_basis))
    lines = np.empty((len(traces), 2, n_basis, n_times))

    def fill(gram, ab):
        AC = [band_product(ab, C) for C, _ in factors]
        for k, (Ck, Yk) in enumerate(factors):
            for l in range(k, len(factors)):
                AY = np.matmul(Ck.T @ AC[l], factors[l][1])
                block = np.einsum("iat,jat->tij", Yk, AY)
                gram[:, rows[k], rows[l]] = block
                gram[:, rows[l], rows[k]] = block.transpose(0, 2, 1)

    def trace(which):
        for dof, line in zip(traces, lines):
            line[which] = np.concatenate([C[dof] @ Y for C, Y in factors])

    fill(grams[0], unit[0])
    fill(grams[2], unit[1])
    trace(1)
    for _, Y in factors:
        for y in Y:
            y[:] = cumtrapz(y, dt)
    fill(grams[1], unit[1])
    trace(0)
    return grams, list(lines.reshape(-1, n_basis, n_times))


def _series(basis, c):
    """The norm series of the input with basis coefficients c, from the
    (Gram series, line bases) pair of its basis."""
    grams, lines = basis
    return [gram @ c @ c for gram in grams] + [c @ line for line in lines]


def _forward_bases(coeffs, grid, system, n_fft, unit):
    """The bases of `apriori_series` over the 8 basis loads, in the order
    of `_modal_load`'s coefficients, from the velocity responses to the
    four space modes as impulses at t_1, of one batched `solve_forward`
    pass."""
    pulses = np.zeros((4, grid.n_nodes, grid.n_times))
    pulses[:, :, 1] = _mode_shapes(grid)
    trajs = solve_forward(coeffs, [LoadField(f, grid) for f in pulses], grid,
                          system=system)
    velocities = [traj.v[:, 1:] for traj in trajs]
    # the u histories and the loads go before the states are formed
    del pulses, trajs
    return _norm_bases(velocities, _load_histories(grid), n_fft, unit,
                       grid.dt, traces=(system.theta0_dof, system.thetaL_dof))


def _adjoint_bases(grid, velocities, n_fft, unit):
    """The bases of `adjoint_series` over the 6 basis moments, p then q.
    The adjoint problem is the forward pencil driven at the end rotations
    by the reversed data, so its rate states d phi / d tau, in tau = T -
    t, convolve the reversed basis moments with `velocities`, the end
    rotations' velocity responses.  The field is the tau state read
    backwards in time, and phi_t is minus its rate, so its Gram series
    are the tau states' read backwards."""
    reversed_modes = _moment_modes(grid)[:, ::-1]
    (pt_sq, pxx_sq, pxxt_sq), _ = _norm_bases(
        velocities, np.stack([reversed_modes] * 2), n_fft, unit, grid.dt)
    return [gram[::-1] for gram in (pxx_sq, pt_sq, pxxt_sq)], []


def _output_bases(grid, kernel):
    """The outputs (theta_0, theta_l) of the 8 basis loads, (8, 2,
    n_times), and the space-time Gram of their gradients, the kernel's
    adjoint fields of those outputs, (8, 8)."""
    outputs = np.array([kernel.outputs(_modal_load(grid, c).values)
                        for c in np.eye(8)])
    fields = [kernel.adjoint(*theta) for theta in outputs]
    return outputs, np.array([[spacetime_inner(a, b, grid) for b in fields]
                              for a in fields])


def audit_operators(grid, coeffs):
    """The (kernel, forward bases, adjoint bases) triple of one assemble:
    the ImpulseKernel of the grid and coefficients, and the bases of
    the suite's a-priori and adjoint audits.  The phases run largest
    first, and each drops its arrays before the next starts: the
    four-mode pass and the forward bases, the `end_rotation_responses`
    pass, the adjoint bases from its v, and the kernel from its u."""
    system = assemble(grid, coeffs)
    unit = unit_norm_matrices(grid)
    n_fft = kernel_fft_length(grid)
    forward = _forward_bases(coeffs, grid, system, n_fft, unit)
    u, velocities = end_rotation_responses(system, grid)
    velocities = list(velocities)
    adjoint = _adjoint_bases(grid, velocities, n_fft, unit)
    return impulse_kernel(system, grid, u), forward, adjoint


def _scenario(grid, coeffs, bases, rng, tag, slack, ct_variant):
    """Draw one suite scenario's inputs (load, Poincare amplitudes, load2,
    truth, p, q) and evaluate its rows from the bases."""
    factors, moment_factors, forward, adjoint, output_bases = bases
    outputs, gradient_gram = output_bases
    c1 = rng.normal(size=8)
    load = _modal_load(grid, c1, factors)
    F_norm_sq = l2_norm_spacetime(load) ** 2

    # a-priori bounds: six volume norms and four boundary traces
    rows = apriori_rows(_series(forward, c1), grid, coeffs,
                        F_norm_sq, slack, tag)

    # Rolle-type inequality, closed forms on a random sine sum w: the
    # int w_x^2 and (l^2 / 2) int w_xx^2 of each mode, with l divided
    # once, so that no power of 1/l underflows on a long beam
    amps = rng.normal(size=3)
    l = grid.length
    lhs_p = sum(a ** 2 * (k * np.pi) ** 2 / (2 * l)
                for k, a in enumerate(amps, start=1))
    rhs_p = sum(a ** 2 * (k * np.pi) ** 4 / (4 * l)
                for k, a in enumerate(amps, start=1))
    rows.append(CheckRow.bound("poincare", tag, lhs_p, rhs_p, slack))

    # a second load, and twin data from a third for C_J
    c2 = rng.normal(size=8)
    load2 = _modal_load(grid, c2, factors)
    meas = np.tensordot(rng.normal(size=8), outputs, 1)
    consts = compute_constants(
        grid.length, grid.final_time, coeffs.bounds,
        C_F=max(1.0, 10.0 * F_norm_sq),
        theta0_norm=series_l2_norm(meas[0], grid.dt),
        thetaL_norm=series_l2_norm(meas[1], grid.dt),
        ct_variant=ct_variant)
    dF = l2_norm_spacetime(load - load2)
    r1 = np.tensordot(c1, outputs, 1) - meas
    r2 = np.tensordot(c2, outputs, 1) - meas

    # Lipschitz continuity of the input-output maps: the data cancel
    # in the difference of the residuals
    for name, channel in (("io_lipschitz_theta0", 0),
                          ("io_lipschitz_thetaL", 1)):
        lhs = series_l2_norm(r1[channel] - r2[channel], grid.dt)
        rows.append(CheckRow.bound(name, tag, lhs, consts.C_L * dF, slack))

    # Lipschitz continuity of the misfit functional
    rows.append(CheckRow.bound(
        "misfit_lipschitz", tag,
        abs(misfit(*r1, grid.dt) - misfit(*r2, grid.dt)), consts.C_J * dF,
        slack))

    # the adjoint estimates of random moment data
    a_p, a_q = rng.normal(size=3), rng.normal(size=3)
    (_, dp), (_, dq) = (_moment(grid, a_p, moment_factors),
                        _moment(grid, a_q, moment_factors))
    rows += adjoint_rows(_series(adjoint, np.concatenate([a_p, a_q])), grid,
                         coeffs, dp, dq, slack, tag, ct_variant)

    # Lipschitz continuity of the gradient: the gradient difference is
    # the adjoint field of the output difference
    d = c1 - c2
    rows.append(CheckRow.bound("gradient_lipschitz", tag,
                               np.sqrt(d @ gradient_gram @ d),
                               consts.L_G * dF, slack))
    return rows


def verify_inequality_suite(grid, coeffs, n_scenarios=20, seed=0,
                            slack=DEFAULT_SLACK, ct_variant="literal",
                            operators=None):
    """Run every inequality check over randomized admissible inputs.

    The loads span 8 basis loads and the moment data 6 basis series, so
    the suite first builds, once per call, the Gram series of the
    audited norms over each basis, the basis loads' outputs and the Gram
    of their gradients; each scenario then draws its coefficients and
    evaluates quadratic and linear forms in them.  The forward states are
    FFT convolutions with the velocity responses to the four space modes
    of `random_load`, from one pass, and the adjoint states with those
    to the two end rotations.  `operators` is the (kernel, forward bases,
    adjoint bases) triple of `audit_operators`, built when not given.
    Returns a SuiteReport; an empty scenario set yields an empty report,
    and builds nothing.
    """
    if not n_scenarios:
        return SuiteReport(())
    rng = np.random.default_rng(seed)
    if operators is None:
        operators = audit_operators(grid, coeffs)
    kernel, forward, adjoint = operators
    bases = ((_mode_shapes(grid), _load_histories(grid)),
             _moment_factors(grid), forward, adjoint,
             _output_bases(grid, kernel))
    rows = []
    for s in range(n_scenarios):
        rows += _scenario(grid, coeffs, bases, rng, f"s{s:02d}", slack,
                          ct_variant)
    return SuiteReport(tuple(rows))


def duality_checks(grid, coeffs, n_triples=5, seed=0, tol=1e-3, kernel=None):
    """Duality-identity residuals for random (dF, p, q) triples, on the
    impulse-kernel operators that the misfit and its gradient use.

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
        phi = kernel.adjoint(p, q)
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
