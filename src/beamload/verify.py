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
output a linear one; so are the space-time norm of a load, c' M c with
the load Gram M, and that of a gradient.  The beam's store keeps one
read-only audit record of these Grams, the basis loads' outputs and
the moment factors, built once per beam; every scenario is evaluated
from it, and forms no load and makes no convolution.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import check_adjoint_estimates
from .assembly import assemble, unit_norm_matrices
from .constants import compute_constants
from .forward import (EPS_FLOOR, _factored_spectra, band_product,
                      beam_kernel, beam_store, check_apriori_estimates,
                      convolve_t1, cumtrapz, end_rotation_responses,
                      impulse_kernel, kernel_fft_length, solve_forward)
from .model import (DEFAULT_SLACK, CheckRow, LoadField, MeasurementSeries,
                    l2_norm_spacetime, series_l2_norm, spacetime_inner,
                    time_inner, trapezoid_weights)
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


def _modal_load(grid, c):
    """The load sum_k sin(k pi x / l) (a_k sin(k pi t / T)
    + b_k cos((k - 1) pi t / T)) of coefficients c = (a_1, b_1, ..., a_4,
    b_4)."""
    histories = _load_histories(grid)
    pairs = np.reshape(c, (4, 2))
    h = pairs[:, :1] * histories[:, 0] + pairs[:, 1:] * histories[:, 1]
    return LoadField(np.einsum("kn,kt->nt", _mode_shapes(grid), h), grid)


def random_load(grid, rng):
    """Smooth random admissible load from the four lowest space-time modes."""
    return _modal_load(grid, rng.normal(size=8))


def _moment_factors(grid):
    """The moment basis sin(j pi t / T), j = 1..3, and the cosines
    cos(j pi t / T) of its derivatives, each (3, n_times)."""
    w = np.arange(1, 4)[:, None] * np.pi / grid.final_time
    return np.sin(w * grid.times), np.cos(w * grid.times)


def _moment(grid, a, factors=None):
    """The series sum_j a_j sin(j pi t / T) and its analytic derivative,
    each summed over j in order.  `factors` is the `_moment_factors`
    pair of the grid, made when not given."""
    modes, cosines = factors or _moment_factors(grid)
    a = a[:, None]
    w = np.arange(1, 4)[:, None] * np.pi / grid.final_time
    return sum(a * modes), sum(a * w * cosines)


def random_smooth_series(grid, rng):
    """Random smooth time series of three sine modes with its analytic
    derivative, vanishing at t=0 as the adjoint trace argument requires."""
    return _moment(grid, rng.normal(size=3))


def _coordinates(velocity, inputs, n_fft):
    """(C, Y) with the velocity states of the input series (n_per,
    n_times) equal to C Y[p]: `velocity` is the response (n_dofs,
    n_times - 1) to a unit impulse at t_1, given from t_1 on, factored
    as C W by `_factored_spectra` as 1 input, and Y (n_per, r, n_times)
    convolves each input with the r rows of W."""
    C, (spectrum,) = _factored_spectra(velocity, n_fft, 1)
    Y = np.empty((len(inputs),) + spectrum.shape[:1] + inputs.shape[1:])
    for x, y in zip(inputs, Y):
        y[:] = convolve_t1(spectrum[:, None], x[None], n_fft)
    return C, Y


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
    velocity's cumulative trapezoid from rest, which the Newmark step
    keeps to a few eps, so its coordinates are the cumtrapz of Y_k; a
    trace line is the DOF's row of C_k times them.  The Gram series and
    lines are read-only: the beam's store keeps them."""
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
    grams.flags.writeable = lines.flags.writeable = False
    return grams, tuple(lines.reshape(-1, n_basis, n_times))


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
    reversed_modes = _moment_factors(grid)[0][:, ::-1]
    (pt_sq, pxx_sq, pxxt_sq), _ = _norm_bases(
        velocities, np.stack([reversed_modes] * 2), n_fft, unit, grid.dt)
    return tuple(gram[::-1] for gram in (pxx_sq, pt_sq, pxxt_sq)), ()


def _load_gram(grid):
    """The (8, 8) space-time Gram sum w_x w_t F_i F_j of the 8 basis
    loads F_i of `_modal_load`, from its separable factors: the weighted
    space Gram of the modes, repeated over each (sin, cos) pair, times
    the weighted time Gram of the histories.  No load is formed."""
    shapes = _mode_shapes(grid)
    histories = _load_histories(grid).reshape(8, -1)
    w_x = trapezoid_weights(grid.n_nodes, grid.h)
    w_t = trapezoid_weights(grid.n_times, grid.dt)
    space = np.repeat(np.repeat(shapes * w_x @ shapes.T, 2, 0), 2, 1)
    return space * (histories * w_t @ histories.T)


def _output_bases(grid, kernel):
    """The outputs (theta_0, theta_l) of the 8 basis loads, (8, 2,
    n_times), the (8, 8) space-time Gram of their gradients, and the
    `_load_gram` of the loads themselves.  The gradients are the adjoint
    fields of the outputs, so their Gram is sum_t w_t y_i' G y_j over
    their `adjoint_series` coordinates y and the kernel's `field_gram` G;
    the time weights w_t are symmetric, so y stays in reversed time."""
    outputs = np.array([kernel.outputs(_modal_load(grid, c).values)
                        for c in np.eye(8)])
    Y = [kernel.adjoint_series(theta) for theta in outputs]
    w_t = trapezoid_weights(grid.n_times, grid.dt)
    return (outputs,
            np.array([[np.vdot(gy, y) for y in Y] for gy in
                      (kernel.field_gram @ y * w_t for y in Y)]),
            _load_gram(grid))


def audit_operators(grid, coeffs):
    """The flat audit record (moment factors, forward bases, adjoint
    bases, outputs, gradient Gram, load Gram) of the beam `coeffs` on
    `grid`: the `_moment_factors`, the bases of the suite's a-priori and
    adjoint audits and the `_output_bases` of its basis loads, read-only
    and kept in its `beam_store` beside the kernel, so that the next
    call on the beam builds nothing.

    Missing operators are built from one assemble.  The phases run
    largest first, and each drops its arrays before the next starts: the
    four-mode pass and the forward bases, the `end_rotation_responses`
    pass, the adjoint bases from its v, the kernel from its u, kept as
    the beam's for `beam_kernel` unless the beam has one already, and
    the output bases on that kernel."""
    store = beam_store(grid, coeffs)
    if "audit" not in store:
        system = assemble(grid, coeffs)
        unit = unit_norm_matrices(grid)
        n_fft = kernel_fft_length(grid)
        forward = _forward_bases(coeffs, grid, system, n_fft, unit)
        u, velocities = end_rotation_responses(system, grid)
        velocities = list(velocities)
        adjoint = _adjoint_bases(grid, velocities, n_fft, unit)
        if "kernel" not in store:
            store["kernel"] = impulse_kernel(system, grid, u)
        moments = _moment_factors(grid)
        outputs = _output_bases(grid, store["kernel"])
        for array in (*moments, *outputs):
            array.flags.writeable = False
        store["audit"] = (moments, forward, adjoint) + outputs
    return store["audit"]


def _scenario(grid, coeffs, audit, rng, tag, slack, ct_variant):
    """Draw one suite scenario's inputs (load, Poincare amplitudes, load2,
    truth, p, q) and evaluate its rows from the `audit_operators`."""
    (moment_factors, forward, adjoint, outputs, gradient_gram,
     load_gram) = audit
    c1 = rng.normal(size=8)
    F_norm_sq = float(c1 @ load_gram @ c1)

    # a-priori bounds: six volume norms and four boundary traces
    rows = check_apriori_estimates(_series(forward, c1), grid, coeffs,
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
    meas = np.tensordot(rng.normal(size=8), outputs, 1)
    consts = compute_constants(
        grid.length, grid.final_time, coeffs.bounds,
        C_F=max(1.0, 10.0 * F_norm_sq),
        theta0_norm=series_l2_norm(meas[0], grid.dt),
        thetaL_norm=series_l2_norm(meas[1], grid.dt),
        ct_variant=ct_variant)
    d = c1 - c2
    dF = float(np.sqrt(d @ load_gram @ d))
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
    rows += check_adjoint_estimates(
        _series(adjoint, np.concatenate([a_p, a_q])), grid, coeffs, dp, dq,
        slack, tag, ct_variant)

    # Lipschitz continuity of the gradient: the gradient difference is
    # the adjoint field of the output difference
    rows.append(CheckRow.bound("gradient_lipschitz", tag,
                               np.sqrt(d @ gradient_gram @ d),
                               consts.L_G * dF, slack))
    return rows


def verify_inequality_suite(grid, coeffs, n_scenarios=20, seed=0,
                            slack=DEFAULT_SLACK, ct_variant="literal"):
    """Run every inequality check over randomized admissible inputs.

    The loads span 8 basis loads and the moment data 6 basis series, so
    the suite first takes the Gram series of the audited norms over each
    basis, and the basis loads' outputs, the Gram of their gradients and
    their space-time Gram; each scenario then draws its coefficients and
    evaluates quadratic and linear forms in them.  The forward states are
    FFT convolutions with the velocity responses to the four space modes
    of `random_load`, from one pass, and the adjoint states with those
    to the two end rotations.  The bases are the beam's kept
    `audit_operators`, so a second call on the same beam makes no Newmark
    pass, no convolution and no nodal load.  Returns a SuiteReport; an
    empty scenario set yields an empty report, and builds nothing.
    """
    if not n_scenarios:
        return SuiteReport(())
    rng = np.random.default_rng(seed)
    audit = audit_operators(grid, coeffs)
    rows = []
    for s in range(n_scenarios):
        rows += _scenario(grid, coeffs, audit, rng, f"s{s:02d}", slack,
                          ct_variant)
    return SuiteReport(tuple(rows))


def duality_checks(grid, coeffs, n_triples=5, seed=0, tol=1e-3, kernel=None):
    """Duality-identity residuals for random (dF, p, q) triples, on the
    impulse-kernel operators that the misfit and its gradient use.

    `kernel` is the ImpulseKernel of the grid and coefficients, the kept
    `beam_kernel` when not given.  No triples build nothing.
    """
    if not n_triples:
        return SuiteReport(())
    rng = np.random.default_rng(seed)
    kernel = kernel or beam_kernel(grid, coeffs)
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
    on `kernel`, the ImpulseKernel of the grid and coefficients, the kept
    `beam_kernel` when not given.  No directions build nothing."""
    if not n_directions:
        return SuiteReport(())
    rng = np.random.default_rng(seed)
    kernel = kernel or beam_kernel(grid, coeffs)
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
