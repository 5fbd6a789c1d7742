"""Time integration of the damped beam and the related energy audits.

The scheme is Newmark with average acceleration (gamma=1/2, beta=1/4):
unconditionally stable, second order, and free of numerical dissipation,
so the discrete energy balance reflects only the physical damping terms.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import as_strided

from ._lapack import bound_matvec, bound_solve, cholesky_banded
from .assembly import assemble
from .constants import compute_constants
from .errors import DimensionError, DivergenceError
from .model import (DEFAULT_SLACK, CheckRow, MeasurementSeries,
                    l2_norm_spacetime, trapezoid_weights)

EPS_FLOOR = 1e-14
EPS = np.finfo(float).eps


def _block_diagonal(ab, n_cases):
    """Upper band storage of `n_cases` uncoupled copies of the banded
    matrix ab along the diagonal, in Fortran order, so that BLAS and
    LAPACK take it without a copy.

    The unused upper-left corner entries ab[k - d, :d] are zeroed before
    tiling: LAPACK never reads them for one case, but once tiled they
    would couple each case to the one before it.
    """
    ab = np.array(ab, dtype=float)
    kd = ab.shape[0] - 1
    for d in range(1, kd + 1):
        ab[kd - d, :d] = 0.0
    return np.asfortranarray(np.tile(ab, n_cases))


def _cholesky(ab, name):
    """`cholesky_banded` of the band storage ab of the `name` matrix; a
    failed factorization is a DivergenceError that names it."""
    try:
        return cholesky_banded(ab)
    except np.linalg.LinAlgError:
        raise DivergenceError(
            f"{name} matrix not positive definite") from None


def newmark_integrate(M, C, K, forces, dt):
    """Integrate M a + C v + K u = f(t) from rest.

    M, C and K are symmetric matrices in LAPACK upper band storage, shape
    (k + 1, n_dofs) with ab[k + i - j, j] = A[i, j], as `assembly`
    stores them; the bandwidth k is read from the storage.  `forces` has
    shape (n_times, n_dofs) sampled at the time instants.  Returns the
    displacement and velocity histories (u, v), each (n_dofs, n_times):
    transposed views of arrays stored one instant per row, so that each
    step writes contiguous rows.  Only the current acceleration is kept.
    The effective matrix K + a0 M + a1 C is summed band by band and
    factored once with a banded symmetric Cholesky factorization (a
    DivergenceError naming the matrix when it or M fails); each
    step makes two banded matvecs and one banded solve, bound once per
    pass to fixed buffers.

    `forces` of shape (n_times, B, n_dofs) integrates B load cases at
    once, and u and v are then (B, n_dofs, n_times).  The cases form one
    block-diagonal band system, so each step still makes the same three
    calls, on vectors B times longer, and every case's history equals
    its single pass bit for bit.
    """
    n_times, n = forces.shape[0], forces.shape[-1]
    cases = forces.shape[1:-1]
    n_cases = int(np.prod(cases))
    if not np.all(np.isfinite(forces)):
        raise DivergenceError("non-finite force input")
    forces = forces.reshape(n_times, n_cases * n)
    M, C, K = (_block_diagonal(ab, n_cases) for ab in (M, C, K))
    # Newmark-beta at gamma = 1/2, beta = 1/4: of the textbook step's
    # constants, a3 = a4 = 1, a5 = 0 and a6 = a7 = h; in numpy floats, so
    # a step out of floating range gives an a0 of inf or 0, not an error
    dt = np.float64(dt)
    with np.errstate(all="ignore"):
        a0, a1, a2, h = 4.0 / dt ** 2, 2.0 / dt, 4.0 / dt, dt / 2.0
        eff = K + a0 * M + a1 * C
    if not (a0 > 0 and np.isfinite(eff).all()):
        raise DivergenceError(f"time step {dt:g} out of floating range")

    cb_eff, cb_M = _cholesky(eff, "effective"), _cholesky(M, "mass")

    u = np.zeros((n_times, n_cases * n))
    v = np.zeros((n_times, n_cases * n))
    ak, an, x, y, b, a2v, tmp = (np.empty(n_cases * n) for _ in range(7))
    ak[:] = forces[0]
    bound_solve(cb_M, ak)()
    matvec_M, matvec_C = bound_matvec(M, x, y), bound_matvec(C, x, y)
    solve = bound_solve(cb_eff, b)

    # the BLAS matvecs and LAPACK triangular solves are called directly on
    # the bands and the state is checked for finiteness once per pass, not
    # once per step; a pass that diverges runs on to the end without
    # floating-point warnings.  Each step computes, into its buffers (a
    # ufunc's third argument is its output) and in this order of
    # operations,
    #   b = f_k+1 + M (a0 u_k + a2 v_k + a_k) + C (a1 u_k + v_k),
    #   u_k+1 = eff^-1 b,  a_k+1 = a0 (u_k+1 - u_k) - a2 v_k - a_k,
    #   v_k+1 = v_k + h a_k + h a_k+1
    with np.errstate(all="ignore"):
        for k in range(n_times - 1):
            uk, vk, un, vn = u[k], v[k], u[k + 1], v[k + 1]
            np.multiply(a0, uk, x)
            np.multiply(a2, vk, a2v)
            np.add(x, a2v, x)
            np.add(x, ak, x)
            matvec_M()
            np.add(forces[k + 1], y, b)
            np.multiply(a1, uk, x)
            np.add(x, vk, x)
            matvec_C()
            np.add(b, y, b)
            solve()
            np.copyto(un, b)
            np.subtract(b, uk, an)
            np.multiply(a0, an, an)
            np.subtract(an, a2v, an)
            np.subtract(an, ak, an)
            np.multiply(h, ak, tmp)
            np.add(vk, tmp, vn)
            np.multiply(h, an, tmp)
            np.add(vn, tmp, vn)
            ak, an = an, ak
    bad = np.flatnonzero(~np.isfinite(u).all(axis=1))
    if bad.size:
        raise DivergenceError(f"non-finite state at step {bad[0]}")
    shape = (n_times,) + cases + (n,)
    return (np.moveaxis(u.reshape(shape), 0, -1),
            np.moveaxis(v.reshape(shape), 0, -1))


@dataclass(frozen=True)
class BeamTrajectory:
    """Discrete solution of the forward problem with its slope outputs."""

    u: np.ndarray
    v: np.ndarray
    outputs: MeasurementSeries
    grid: object
    system: object

    def full_deflection(self):
        """Deflection sampled at all nodes (end nodes are zero)."""
        return self.system.nodal(self.u[self.system.deflection_dofs])


def consistent_forces(system, load):
    """Consistent load vectors (n_times, n_dofs) of a nodal load field."""
    return (system.load_map @ load.values).T


@dataclass(frozen=True)
class ImpulseKernel:
    """Discrete impulse responses of one assembled system on one time grid
    of `n_times` instants, factored at their numerical rank.

    Newmark is linear and shift-invariant, so the end-slope outputs and
    the adjoint field are causal convolutions of their inputs with the
    responses to a unit impulse at an end-rotation DOF at t_1, kept as
    `n_fft`-point spectra.  A force f_0 at t_0 needs no response of its
    own: the scheme starts from a_0 = M^-1 f_0, which acts exactly like
    the force train f_0, -f_0, f_0, ... from t_1 on.  Arrays are
    (n_out, n_in, frequency):

    - `outputs_t1`: out = (theta_0, theta_l), in = r_out series.  The
      responses to an impulse at each end rotation, folded through
      `load_map`, give the outputs of a nodal load because the Newmark
      pencil is symmetric (reciprocity).  Over the nodes they are
      `load_basis` (n_nodes, r_out) times the series whose spectra are
      kept, so a load is projected onto r_out series first.
    - `adjoint_t1`: out = r_adj series, in = (theta_0, theta_l); the
      interior nodes' responses are `field_basis` (n_nodes - 2, r_adj)
      times them, and the simply supported end nodes' rows are zero.

    Kelvin-Voigt damping (kappa > 0) damps the high modes within a few
    steps, so the responses of neighbouring nodes are nearly dependent:
    at 64x512 with kappa = 0.02 the rank is 28-30 of 65 and 28-31 of 63
    (`impulse_kernel` states the rule).  A basis of None is the identity:
    at full rank the responses are kept node by node and applied as
    they are.  `rank` is (r_out, r_adj).

    `system` is the assembled system the responses belong to.
    """

    n_fft: int
    n_times: int
    outputs_t1: np.ndarray
    adjoint_t1: np.ndarray
    system: object
    load_basis: np.ndarray = None
    field_basis: np.ndarray = None

    @property
    def rank(self):
        """(r_out, r_adj): the number of series each call convolves."""
        return self.outputs_t1.shape[1], self.adjoint_t1.shape[0]

    def _convolve(self, t1, series):
        """Responses applied to input series (n_in, n_times), summed over
        the inputs."""
        n_times = series.shape[1]
        if n_times != self.n_times:
            raise DimensionError(f"series of {n_times} instants given to a "
                                 f"kernel of {self.n_times}")
        return convolve_t1(t1, series, self.n_fft)

    def outputs(self, values):
        """End slopes (theta_0, theta_l) of nodal load values
        (n_nodes, n_times), as `solve_forward` gives them: the
        `output_series` of their `load_basis` coordinates."""
        if not np.all(np.isfinite(values)):
            raise DivergenceError("non-finite force input")
        if self.load_basis is not None:
            values = self.load_basis.T @ values
        theta = self.output_series(values)
        return theta[0], theta[1]

    def output_series(self, series):
        """End slopes (2, n_times) of the r_out load coordinate series
        (r_out, n_times)."""
        theta = self._convolve(self.outputs_t1, series)
        if not np.all(np.isfinite(theta)):
            raise DivergenceError("non-finite output")
        return theta

    def adjoint(self, p, q):
        """Nodal adjoint field (n_nodes, n_times) of moment data p, q: the
        deflection rows of `solve_adjoint`, zero at the end nodes.  It is
        `field_basis` times the `adjoint_series`, reversed in time."""
        phi_tau = self.adjoint_series(np.array([p, q], dtype=float))
        if self.field_basis is not None:
            phi_tau = self.field_basis @ phi_tau
        return self.system.nodal(phi_tau[:, ::-1])

    def adjoint_series(self, pq):
        """The r_adj coordinate series (r_adj, n_times) of the adjoint
        field of moment data pq = (p, q), in reversed time tau = T - t."""
        if not np.all(np.isfinite(pq)):
            raise DimensionError("adjoint inputs must be finite")
        return self._convolve(self.adjoint_t1, pq[:, ::-1])


def convolve_t1(t1, series, n_fft):
    """Causal convolution of input series (n_in, n_times) with the
    responses to unit impulses at t_1, given as `n_fft`-point spectra
    (n_out, n_in, frequency), summed over the inputs.  The sample at t_0
    acts as the force train f_0, -f_0, f_0, ... from t_1 on; the result
    (n_out, n_times) vanishes at t_0."""
    n_times = series.shape[1]
    spectrum = rfft(series[:, 1:] + series[:, :1] * _force_train(n_times - 1),
                    n_fft)
    out = np.zeros((t1.shape[0], n_times))
    out[:, 1:] = irfft(np.einsum("oif,if->of", t1, spectrum),
                       n_fft)[:, :n_times - 1]
    return out


@functools.cache
def _force_train(n):
    """The read-only force train 1, -1, 1, ... of n samples."""
    train = (-1.0) ** np.arange(n)
    train.flags.writeable = False
    return train


def next_fast_len(n):
    """The smallest 5-smooth integer 2^a 3^b 5^c not below n >= 1: the
    length `scipy.fft.next_fast_len(n, real=True)` gives, without
    importing scipy.fft."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def kernel_fft_length(grid):
    """The FFT length of the impulse responses on `grid`: the least
    5-smooth length at which two series of n_steps samples from t_1
    convolve without wrap-around."""
    return next_fast_len(2 * grid.n_steps - 1)


def end_rotation_responses(system, grid):
    """Histories (u, v) from t_1 on, each (2, n_dofs, n_times - 1), of
    unit impulses at t_1 on theta_0 and theta_l, from one Newmark pass;
    in tau = T - t, the adjoint problem's responses to unit end moments."""
    impulses = np.zeros((grid.n_times, 2, system.n_dofs))
    impulses[1, [0, 1], [system.theta0_dof, system.thetaL_dof]] = 1.0
    u, v = newmark_integrate(system.M, system.C, system.K, impulses,
                             grid.dt)
    return u[:, :, 1:], v[:, :, 1:]


def _pivots(gram, floor):
    """Rows picked, in order, by a diagonally pivoted Cholesky
    factorization of the Gram matrix of some rows, while the pivot
    exceeds `floor` and 16 eps times the first pivot: below that the
    Gram no longer resolves a row."""
    d = np.diag(gram).copy()
    floor = max(floor, 16.0 * EPS * d.max())
    L = np.zeros_like(gram)
    picked = []
    for k in range(len(d)):
        j = int(np.argmax(d))
        if not d[j] > floor:
            break
        L[:, k] = (gram[:, j] - L[:, :k] @ L[j, :k]) / np.sqrt(d[j])
        d -= L[:, k] ** 2
        d[j] = -np.inf
        picked.append(j)
    return picked


def _factor_rows(rows):
    """(C, W) with rows ~ C W, C = rows W' of shape (m, r) and W of
    orthonormal rows (r, n), at the numerical rank r of the (m, n) rows:
    numpy's `matrix_rank` rule, with no row of the residual
    rows - C W above max(m, n) eps times the largest row.  (None, rows)
    when r = m.

    Each round picks rows of the residual by pivoted Cholesky on its
    Gram and orthonormalizes them against W and among themselves by
    Gram-Schmidt twice.  The rounds repeat until the rule holds, because
    one round's Gram resolves rows only down to about sqrt(eps) of its
    largest."""
    m, n = rows.shape
    tol_sq = (max(m, n) * EPS) ** 2 * np.einsum("ij,ij->i", rows, rows).max()
    W = np.empty((m, n))
    r = 0
    while r < m:
        C = rows @ W[:r].T
        residual = C @ W[:r]
        np.subtract(rows, residual, out=residual)
        if np.einsum("ij,ij->i", residual, residual).max() <= tol_sq:
            break
        for j in _pivots(residual @ residual.T, tol_sq):
            w = residual[j].copy()
            for _ in range(2):
                w -= (W[:r] @ w) @ W[:r]
            W[r] = w / np.sqrt(w @ w)
            r += 1
        del residual
    if r == m:
        return None, rows
    return C, W[:r].copy()


def _factored_spectra(rows, n_fft):
    """The basis C of `_factor_rows` and the `n_fft`-point spectra
    (2, r, frequency) of the series W, whose rows hold the two end
    rotations' histories side by side."""
    basis, rows = _factor_rows(rows)
    spectra = np.empty((2, len(rows), n_fft // 2 + 1), dtype=complex)
    for i, half in enumerate(np.hsplit(rows, 2)):
        rfft(half, n_fft, out=spectra[i])
    return basis, spectra


def impulse_kernel(system, grid, u=None):
    """The ImpulseKernel of `system` on the time grid of `grid`, built
    from the displacement responses u of `end_rotation_responses`; the
    pass is made when the caller does not hand its u in.

    Each operator's responses are stacked as rows over the nodes, the
    two end rotations' histories side by side, and factored by
    `_factor_rows`: for the outputs the rows load_map' u_i, for the
    adjoint the interior deflection rows of u_i.  Only the factors'
    series are transformed, one operator at a time."""
    n_fft = kernel_fft_length(grid)
    if u is None:
        u = end_rotation_responses(system, grid)[0]
    load_basis, outputs_t1 = _factored_spectra(
        np.concatenate([system.load_map.T @ r for r in u], axis=1), n_fft)
    field_basis, adjoint_t1 = _factored_spectra(
        np.concatenate([r[system.deflection_dofs] for r in u], axis=1),
        n_fft)
    return ImpulseKernel(
        n_fft=n_fft, n_times=grid.n_times, outputs_t1=outputs_t1,
        adjoint_t1=np.ascontiguousarray(adjoint_t1.transpose(1, 0, 2)),
        system=system, load_basis=load_basis, field_basis=field_basis)


def solve_forward(coeffs, load, grid, system=None):
    """Solve the forward initial boundary value problem.

    Returns a BeamTrajectory whose outputs are the end-rotation DOF
    histories theta_0(t) = u_x(0, t) and theta_l(t) = u_x(l, t).
    A list of loads is solved in one batched Newmark pass and gives the
    list of their trajectories.  A pre-assembled SystemMatrices may be
    passed to skip assembly.
    """
    if system is None:
        system = assemble(grid, coeffs)
    loads = load if isinstance(load, list) else [load]
    forces = np.empty((grid.n_times, len(loads), system.n_dofs))
    for b, f in enumerate(loads):
        forces[:, b] = consistent_forces(system, f)
    u, v = newmark_integrate(system.M, system.C, system.K, forces, grid.dt)
    trajs = [BeamTrajectory(
        u=ub, v=vb, grid=grid, system=system,
        outputs=MeasurementSeries(theta0=ub[system.theta0_dof].copy(),
                                  thetaL=ub[system.thetaL_dof].copy()))
        for ub, vb in zip(u, v)]
    return trajs if isinstance(load, list) else trajs[0]


def energy_residual(traj, coeffs, load):
    """Relative residual of the energy identity over time.

    At each instant compares the stored-plus-dissipated energy with twice
    the cumulative work of the load; both sides are evaluated with the
    assembled bilinear forms and trapezoidal time quadrature.
    """
    sys_ = traj.system
    g = traj.grid
    u, v = traj.u, traj.v
    stored = (quadratic_forms(sys_.M, v)
              + quadratic_forms(sys_.K_r, u)
              + quadratic_forms(sys_.K_T, u))
    # viscous and Kelvin-Voigt terms both dissipate cumulatively
    damp_rate = (quadratic_forms(sys_.C_ext, v)
                 + quadratic_forms(sys_.K_kappa, v))
    forces = consistent_forces(sys_, load)
    work_rate = np.einsum("ki,ik->k", forces, v)
    dissipated = 2.0 * cumtrapz(damp_rate, g.dt)
    work = 2.0 * cumtrapz(work_rate, g.dt)
    lhs = stored + dissipated
    scale = max(np.max(np.abs(work)), EPS_FLOOR)
    return np.abs(lhs - work) / scale


def band_product(ab, X):
    """A X along the first axis of X, for any trailing shape, with the
    symmetric A in upper band storage ab[k + i - j, j] = A[i, j].

    Row r sums W[r, j] x[r + k - j] over j = 0..2k, the offsets k..-k in
    the order in which scipy.sparse's DIA product adds its diagonals, so
    that the two agree bit for bit; an entry outside A adds zero times a
    zero padding row.
    """
    k, n = ab.shape[0] - 1, ab.shape[1]
    # W[r, k - d] = A[r, r + d] and W[r, k + d] = A[r, r - d]
    W = np.zeros((n, 2 * k + 1))
    for d in range(k + 1):
        W[:n - d, k - d] = W[d:, k + d] = ab[k - d, d:]
    # V[r, j] = x[r + k - j], a view of X between k zero rows at each end
    padded = np.zeros((n + 2 * k,) + X.shape[1:])
    padded[k:n + k] = X
    s = padded.strides
    V = as_strided(padded[2 * k:], (n, 2 * k + 1) + X.shape[1:],
                   (s[0], -s[0]) + s[1:], writeable=False)
    return np.einsum("rj,rj...->r...", W, V)


def quadratic_forms(ab, X):
    """x' A x for every column x of X, with the symmetric A in upper band
    storage ab[k + i - j, j] = A[i, j].

    A X is formed first, so that the large stiffness entries cancel
    within each row before the column sums; summing the band's terms
    over all rows at once loses up to 150 times more to round-off.
    """
    return np.einsum("ij,ij->j", band_product(ab, X), X)


def cumtrapz(y, dt):
    """Cumulative trapezoid integral from 0 along the last (time) axis.

    Average-acceleration Newmark updates u_{k+1} = u_k + dt/2 (v_k +
    v_{k+1}), so a displacement history from rest is the cumulative
    trapezoid of its velocity history.
    """
    out = np.zeros_like(y)
    out[..., 1:] = np.cumsum(0.5 * dt * (y[..., 1:] + y[..., :-1]), axis=-1)
    return out


def apriori_series(traj, unit):
    """The norm series that the a-priori estimates bound, at every
    instant: int u_t^2, int u_xx^2 and int u_xxt^2 dx, then the end
    rotations theta_0, theta_0', theta_l and theta_l'.  `unit` is the
    (M, K_r) pair of `unit_norm_matrices`."""
    M1, K1 = unit
    u, v, s = traj.u, traj.v, traj.system
    return (quadratic_forms(M1, v), quadratic_forms(K1, u),
            quadratic_forms(K1, v), u[s.theta0_dof], v[s.theta0_dof],
            u[s.thetaL_dof], v[s.thetaL_dof])


def apriori_rows(series, grid, coeffs, F_sq, slack=DEFAULT_SLACK,
                 scenario=""):
    """CheckRows of the six volume-norm and four boundary-trace a-priori
    bounds on the norm series of `apriori_series`, for a load of squared
    norm F_sq, with the constants C_e^2 and C_1^2 of
    `compute_constants`."""
    b = coeffs.bounds
    ut_sq, uxx_sq, uxxt_sq, th0, th0_t, thL, thL_t = series
    wt = trapezoid_weights(grid.n_times, grid.dt)
    consts = compute_constants(grid.length, grid.final_time, b)
    Ce2, C1_sq = consts.Ce_sq, consts.C1_sq

    bounds = [
        ("ut_LinfL2", float(np.max(ut_sq)), Ce2 / b.rho0 * F_sq),
        ("ut_L2L2", float(wt @ ut_sq), (Ce2 - 1.0) * F_sq),
        ("uxx_LinfL2", float(np.max(uxx_sq)), Ce2 / b.r0 * F_sq),
        ("uxx_L2L2", float(wt @ uxx_sq), b.rho0 / b.r0 * (Ce2 - 1.0) * F_sq),
        ("uxxt_LinfL2", float(np.max(uxxt_sq)), Ce2 / b.kappa0 * F_sq),
        ("uxxt_L2L2", float(wt @ uxxt_sq),
         b.rho0 / b.kappa0 * (Ce2 - 1.0) * F_sq),
        ("trace_ux0", float(wt @ th0 ** 2), C1_sq / b.r0 * F_sq),
        ("trace_uxt0", float(wt @ th0_t ** 2), C1_sq / b.kappa0 * F_sq),
        ("trace_uxL", float(wt @ thL ** 2), C1_sq / b.r0 * F_sq),
        ("trace_uxtL", float(wt @ thL_t ** 2), C1_sq / b.kappa0 * F_sq),
    ]
    return estimate_rows("apriori_", scenario, bounds, slack)


def check_apriori_estimates(traj, coeffs, load, unit, slack=DEFAULT_SLACK,
                            scenario=""):
    """Discrete check of the solution and trace a-priori estimates of a
    trajectory and its load: `apriori_rows` of its `apriori_series`.
    `unit` is the (M, K_r) pair of `unit_norm_matrices`.  Returns a list
    of CheckRow records.
    """
    return apriori_rows(apriori_series(traj, unit), traj.grid, coeffs,
                        l2_norm_spacetime(load) ** 2, slack, scenario)


def estimate_rows(prefix, scenario, bounds, slack):
    """CheckRows of (name, lhs, rhs) estimates, floored at EPS_FLOOR."""
    return [CheckRow.bound(prefix + name, scenario, lhs, rhs, slack,
                           EPS_FLOOR)
            for name, lhs, rhs in bounds]
