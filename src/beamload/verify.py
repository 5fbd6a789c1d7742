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
the moment factors, built once per beam.  The suite draws all its
scenarios at once and evaluates them from it as one batch of these
forms, forming no load and making no convolution.  The duality and
finite-difference checks form their loads and moments in the same
bases, by `_modal_load` and `_moment` from factors made once per call.
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
                    spacetime_inner, time_inner, trapezoid_weights)
from .objective import compute_gradient, evaluate_objective


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


def _modal_load(grid, c, factors):
    """The load sum_k sin(k pi x / l) (a_k sin(k pi t / T)
    + b_k cos((k - 1) pi t / T)) of coefficients c = (a_1, b_1, ..., a_4,
    b_4).  `factors` is the (`_mode_shapes`, `_load_histories`) pair of
    the grid."""
    shapes, histories = factors
    pairs = np.reshape(c, (4, 2))
    h = pairs[:, :1] * histories[:, 0] + pairs[:, 1:] * histories[:, 1]
    return LoadField(np.einsum("kn,kt->nt", shapes, h), grid)


def _moment_factors(grid):
    """The moment basis sin(w_j t), w_j = j pi / T, j = 1..3, and its
    derivatives w_j cos(w_j t), each (3, n_times)."""
    w = np.arange(1, 4)[:, None] * np.pi / grid.final_time
    return np.sin(w * grid.times), w * np.cos(w * grid.times)


def _moment(a, factors):
    """The series sum_j a_j sin(j pi t / T) and its analytic derivative,
    each summed over j in order.  `factors` is the `_moment_factors`
    pair of the grid."""
    modes, rates = factors
    a = a[:, None]
    return sum(a * modes), sum(a * rates)


def _coordinates(velocity, series, n_fft):
    """(C, Y) with the velocity states of the input series (n_in, n_per,
    n_times) equal to C Y[i], in basis order i = k n_per + p.  `velocity`
    holds the responses (n_dofs, n_times - 1) to unit impulses at t_1,
    from t_1 on, of the n_in inputs side by side.  They are of low rank,
    since the damping kills the high modes, so they are factored once as
    C W by `_factored_spectra`, as the impulse kernel's are, and Y[i]
    convolves series[k, p] with the r rows of W of response k."""
    n_in, n_per, n_times = series.shape
    C, spectra = _factored_spectra(velocity, n_fft, n_in)
    Y = np.empty((n_in, n_per, C.shape[1], n_times))
    for spectrum, inputs, out in zip(spectra, series, Y):
        for x, y in zip(inputs, out):
            y[:] = convolve_t1(spectrum[:, None], x[None], n_fft)
    return C, Y.reshape(n_in * n_per, -1, n_times)


def _norm_bases(velocity, series, n_fft, unit, dt, traces=()):
    """The Gram series G(t)[i, j] = x_i(t)' A x_j(t) of int w^2, int
    w_xx^2 and int w_xxt^2 dx over the velocity states w = C Y[i] of
    `_coordinates`, and the bases (n_basis, n_times) of the displacement
    and velocity at each of the `traces` DOFs.  Each Gram series is
    Y[i]' (C' A C) Y[j], with A C formed first as `quadratic_forms`
    does, one basis row i at a time.  The displacement is the velocity's
    cumulative trapezoid from rest, which the Newmark step keeps to a
    few eps, so its coordinates are the cumtrapz of Y; a trace line is
    the DOF's row of C times them.  The Gram series and lines are
    read-only: the beam's store keeps them."""
    C, Y = _coordinates(velocity, series, n_fft)
    n_basis, _, n_times = Y.shape
    # int w^2, int w_xx^2, int w_xxt^2, in `check_apriori_estimates`' order
    grams = np.empty((3, n_times, n_basis, n_basis))
    lines = np.empty((len(traces), 2, n_basis, n_times))
    trace_rows = C[list(traces)]

    def fill(gram, ab):
        CAC = C.T @ band_product(ab, C)
        for i, y in enumerate(Y):
            gram[:, i] = np.einsum("at,jat->tj", CAC @ y, Y)

    fill(grams[0], unit[0])
    fill(grams[2], unit[1])
    lines[:, 1] = np.einsum("da,iat->dit", trace_rows, Y)
    for y in Y:
        y[:] = cumtrapz(y, dt)
    fill(grams[1], unit[1])
    lines[:, 0] = np.einsum("da,iat->dit", trace_rows, Y)
    grams.flags.writeable = lines.flags.writeable = False
    return grams, tuple(lines.reshape(-1, n_basis, n_times))


def _series(basis, C):
    """The norm series (n, n_times) of the n inputs with basis
    coefficients C (n, n_basis), from the (Gram series, line bases) pair
    of their basis: c' G(t) c of every row c as one product of the outer
    products c c' with each G as (n_times, n_basis^2)."""
    grams, lines = basis
    outer = (C[:, :, None] * C[:, None]).reshape(len(C), -1)
    return ([outer @ gram.reshape(len(gram), -1).T for gram in grams]
            + [C @ line for line in lines])


def _forward_bases(coeffs, grid, system, n_fft, unit):
    """The bases of the norm series of `check_apriori_estimates` over the
    8 basis loads, in the order of `_modal_load`'s coefficients, from the
    velocity responses to the four space modes as impulses at t_1, of one
    batched `solve_forward` pass, held side by side."""
    pulses = np.zeros((4, grid.n_nodes, grid.n_times))
    pulses[:, :, 1] = _mode_shapes(grid)
    trajs = solve_forward(coeffs, [LoadField(f, grid) for f in pulses], grid,
                          system=system)
    velocity = np.hstack([traj.v[:, 1:] for traj in trajs])
    # the u histories and the loads go before the responses are factored
    del pulses, trajs
    return _norm_bases(velocity, _load_histories(grid), n_fft, unit,
                       grid.dt, traces=(system.theta0_dof, system.thetaL_dof))


def _adjoint_bases(grid, system, n_fft, unit):
    """The bases of the norm series of `check_adjoint_estimates` over the
    6 basis moments, p then q, and the u of their `end_rotation_responses`
    pass.  The adjoint problem is the forward pencil driven at the end
    rotations by the reversed data, so its rate states d phi / d tau, in
    tau = T - t, convolve the reversed basis moments with the pass's two
    velocity responses.  The field is the tau state read backwards in
    time, and phi_t is minus its rate, so its Gram series are the tau
    states' read backwards, copied contiguous for the suite's products,
    in that check's order; `audit_operators` makes them read-only."""
    u, v = end_rotation_responses(system, grid)
    # side by side, and the pass's v goes before they are factored
    v = np.hstack(v)
    reversed_modes = _moment_factors(grid)[0][:, ::-1]
    grams, _ = _norm_bases(v, np.stack([reversed_modes] * 2), n_fft, unit,
                           grid.dt)
    return (tuple(grams[[1, 0, 2], ::-1]), ()), u


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
    fields of the outputs, so their Gram is sum_t w_t y_i' G y_j over their
    `adjoint_series` coordinates y and the kernel's `field_gram` G."""
    loads = _mode_shapes(grid), _load_histories(grid)
    outputs = np.array([kernel.outputs(_modal_load(grid, c, loads).values)
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
    the beam's for `beam_kernel` unless the beam has one already, and,
    with that u dropped, the output bases on that kernel."""
    store = beam_store(grid, coeffs)
    if "audit" not in store:
        system = assemble(grid, coeffs)
        unit = unit_norm_matrices(grid)
        n_fft = kernel_fft_length(grid)
        forward = _forward_bases(coeffs, grid, system, n_fft, unit)
        adjoint, u = _adjoint_bases(grid, system, n_fft, unit)
        if "kernel" not in store:
            store["kernel"] = impulse_kernel(system, grid, u)
        del u
        moments = _moment_factors(grid)
        outputs = _output_bases(grid, store["kernel"])
        for array in (*moments, *adjoint[0], *outputs):
            array.flags.writeable = False
        store["audit"] = (moments, forward, adjoint) + outputs
    return store["audit"]


def verify_inequality_suite(grid, coeffs, n_scenarios=20, seed=0,
                            slack=DEFAULT_SLACK, ct_variant="literal"):
    """Run every inequality check over randomized admissible inputs.

    The loads span 8 basis loads and the moment data 6 basis series, so
    each audited norm series, output and norm is a quadratic or linear
    form in a scenario's coefficients over the beam's kept
    `audit_operators`.  The suite draws every scenario's coefficients at
    once and evaluates the forms of all scenarios as one batch; a second
    call on the same beam makes no Newmark pass, no convolution and no
    nodal load.  Returns a SuiteReport; an empty scenario set yields an
    empty report, and builds nothing.
    """
    if not n_scenarios:
        return SuiteReport(())
    ((_, rates), forward, adjoint, outputs, gradient_gram,
     load_gram) = audit_operators(grid, coeffs)
    # per scenario, in the order that one scenario draws them: the load,
    # the Poincare amplitudes, a second load, the truth, and p and q
    draws = np.random.default_rng(seed).normal(size=(n_scenarios, 33))
    c1, amps, c2 = draws[:, :8], draws[:, 8:11], draws[:, 11:19]
    truth, moments = draws[:, 19:27], draws[:, 27:]
    tags = [f"s{s:02d}" for s in range(n_scenarios)]
    F_sq = np.sum(c1 @ load_gram * c1, 1)
    apriori_rows = check_apriori_estimates(_series(forward, c1), grid,
                                           coeffs, F_sq, slack, tags)
    dp, dq = np.swapaxes(moments.reshape(-1, 2, 3) @ rates, 0, 1)
    adjoint_rows = check_adjoint_estimates(_series(adjoint, moments), grid,
                                           coeffs, dp, dq, slack, tags,
                                           ct_variant)
    # the residuals against twin data from the truth; the data cancel in
    # their difference
    wt = trapezoid_weights(grid.n_times, grid.dt)
    basis = outputs.reshape(8, -1)
    meas = (truth @ basis).reshape(n_scenarios, 2, -1)
    r1, r2 = ((c @ basis).reshape(meas.shape) - meas for c in (c1, c2))
    J1, J2 = (np.sum(0.5 * (r ** 2 @ wt), 1) for r in (r1, r2))
    d = c1 - c2
    io, dJ, dF, dG = (x.tolist() for x in (
        np.sqrt((r1 - r2) ** 2 @ wt), abs(J1 - J2),
        np.sqrt(np.sum(d @ load_gram * d, 1)),
        np.sqrt(np.sum(d @ gradient_gram * d, 1))))
    # the constants of the bounds alone, and C_J of each scenario's C_F
    # and data norms
    l, T, b = grid.length, grid.final_time, coeffs.bounds
    consts = compute_constants(l, T, b, ct_variant=ct_variant)
    C_J = [compute_constants(l, T, b, C_F=max(1.0, 10.0 * F),
                             theta0_norm=n0, thetaL_norm=nL).C_J
           for F, (n0, nL) in zip(F_sq.tolist(),
                                  np.sqrt(meas ** 2 @ wt).tolist())]
    rows = []
    for s, tag in enumerate(tags):
        rows += apriori_rows[s]
        # Rolle-type inequality, closed forms on a random sine sum w: the
        # int w_x^2 and (l^2 / 2) int w_xx^2 of each mode, with l divided
        # once, so that no power of 1/l underflows on a long beam
        lhs_p = sum(a ** 2 * (k * np.pi) ** 2 / (2 * l)
                    for k, a in enumerate(amps[s], start=1))
        rhs_p = sum(a ** 2 * (k * np.pi) ** 4 / (4 * l)
                    for k, a in enumerate(amps[s], start=1))
        rows.append(CheckRow.bound("poincare", tag, lhs_p, rhs_p, slack))
        # Lipschitz continuity of the input-output maps, of the misfit,
        # and of its gradient, the adjoint field of the output difference
        for name, lhs, C in (("io_lipschitz_theta0", io[s][0], consts.C_L),
                             ("io_lipschitz_thetaL", io[s][1], consts.C_L),
                             ("misfit_lipschitz", dJ[s], C_J[s])):
            rows.append(CheckRow.bound(name, tag, lhs, C * dF[s], slack))
        rows += adjoint_rows[s]
        rows.append(CheckRow.bound("gradient_lipschitz", tag, dG[s],
                                   consts.L_G * dF[s], slack))
    return SuiteReport(tuple(rows))


def duality_checks(grid, coeffs, n_triples=5, seed=0, tol=1e-3, kernel=None):
    """Duality-identity residuals for random (dF, p, q) triples, on the
    impulse-kernel operators that the misfit and its gradient use.

    `kernel` is the ImpulseKernel of the grid and coefficients, the kept
    `beam_kernel` when not given.  Each triple draws a `_modal_load` and
    two `_moment`s, from factors made once per call.  No triples build
    nothing.
    """
    if not n_triples:
        return SuiteReport(())
    rng = np.random.default_rng(seed)
    kernel = kernel or beam_kernel(grid, coeffs)
    loads = _mode_shapes(grid), _load_histories(grid)
    moments = _moment_factors(grid)
    rows = []
    for s in range(n_triples):
        dF = _modal_load(grid, rng.normal(size=8), loads).values
        p, _ = _moment(rng.normal(size=3), moments)
        q, _ = _moment(rng.normal(size=3), moments)
        theta0, thetaL = kernel.outputs(dF)
        phi = kernel.adjoint(p, q)
        lhs = time_inner(p, theta0, grid.dt) + time_inner(q, thetaL, grid.dt)
        rhs = spacetime_inner(dF, phi, grid)
        residual = abs(lhs - rhs) / (abs(rhs) + EPS_FLOOR)
        rows.append(CheckRow.bound("duality", f"s{s:02d}", residual, tol))
    return SuiteReport(tuple(rows))


def gradient_fd_checks(grid, coeffs, n_directions=5, seed=0, tol=5e-3,
                       kernel=None):
    """Adjoint gradient against central finite differences of the misfit,
    on `kernel`, the ImpulseKernel of the grid and coefficients, the kept
    `beam_kernel` when not given.  The truth, the load and each direction
    are `_modal_load`s, from factors made once per call.  No directions
    build nothing."""
    if not n_directions:
        return SuiteReport(())
    rng = np.random.default_rng(seed)
    kernel = kernel or beam_kernel(grid, coeffs)
    loads = _mode_shapes(grid), _load_histories(grid)
    truth = _modal_load(grid, rng.normal(size=8), loads)
    meas = MeasurementSeries(*kernel.outputs(truth.values))
    F = _modal_load(grid, rng.normal(size=8), loads).values
    grad = compute_gradient(evaluate_objective(LoadField(F, grid), meas,
                                               kernel))
    F_norm = float(np.sqrt(spacetime_inner(F, F, grid)))
    rows = []
    for s in range(n_directions):
        D = _modal_load(grid, rng.normal(size=8), loads).values
        D_norm = float(np.sqrt(spacetime_inner(D, D, grid)))
        eps = 1e-4 * (F_norm / D_norm if F_norm > 0 else 1.0)
        Jp = evaluate_objective(LoadField(F + eps * D, grid), meas, kernel).J
        Jm = evaluate_objective(LoadField(F - eps * D, grid), meas, kernel).J
        fd = (Jp - Jm) / (2 * eps)
        an = spacetime_inner(grad, D, grid)
        rel = abs(fd - an) / max(abs(fd), EPS_FLOOR)
        rows.append(CheckRow.bound("gradient_fd", f"s{s:02d}", rel, tol))
    return SuiteReport(tuple(rows))
