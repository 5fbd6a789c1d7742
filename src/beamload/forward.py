"""Time integration of the damped beam and the related energy audits.

The scheme is Newmark with average acceleration (gamma=1/2, beta=1/4):
unconditionally stable, second order, and free of numerical dissipation,
so the discrete energy balance reflects only the physical damping terms.
"""

from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import as_strided

from . import _lapack
from ._lapack import bound_matvec, bound_solve, cholesky_banded
from .assembly import assemble, nodal
from .constants import compute_constants
from .errors import DimensionError, DivergenceError
from .model import CheckRow, MeasurementSeries, trapezoid_weights

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
    step writes contiguous rows.  No acceleration is kept.  The effective
    matrix K + a0 M + a1 C is summed band by band and factored once with
    a banded symmetric Cholesky factorization (a DivergenceError naming
    the matrix when it or M fails); each step makes two banded matvecs
    and one banded solve, bound once per pass to fixed buffers.

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
    # in numpy floats, so that a step out of floating range gives an a0
    # of inf or 0, not an error
    dt = np.float64(dt)
    with np.errstate(all="ignore"):
        a0, a1, a2 = 4.0 / dt ** 2, 2.0 / dt, 4.0 / dt
        eff = K + a0 * M + a1 * C
        D_u, D_v = a0 * M + a1 * C - K, a2 * M
    if not (a0 > 0 and np.isfinite(eff).all()):
        raise DivergenceError(f"time step {dt:g} out of floating range")
    cb_eff = _cholesky(eff, "effective")
    _cholesky(M, "mass")  # the check alone: no step solves with M

    u = np.zeros((n_times, n_cases * n))
    v = np.zeros((n_times, n_cases * n))
    xu, yu, xv, yv, b = (np.empty(n_cases * n) for _ in range(5))
    matvec_u, matvec_v = bound_matvec(D_u, xu, yu), bound_matvec(D_v, xv, yv)
    solve = bound_solve(cb_eff, b)

    # the BLAS matvecs and LAPACK triangular solves are called directly on
    # the bands and the state is checked for finiteness once per pass, not
    # once per step; a pass that diverges runs on to the end without
    # floating-point warnings.  The scheme keeps M a_k + C v_k + K u_k = f_k
    # at every instant, so a_k drops out (Hughes, 1987, ch. 9); each step
    # computes, into its buffers (a ufunc's third argument is its output)
    # and in this order of operations,
    #   b = f_k+1 + f_k + (a0 M + a1 C - K) u_k + a2 M v_k,
    #   u_k+1 = eff^-1 b,  v_k+1 = a1 (u_k+1 - u_k) - v_k
    with np.errstate(all="ignore"):
        for k in range(n_times - 1):
            uk, vk, un, vn = u[k], v[k], u[k + 1], v[k + 1]
            np.copyto(xu, uk)
            np.copyto(xv, vk)
            matvec_u()
            matvec_v()
            np.add(forces[k + 1], forces[k], b)
            np.add(b, yu, b)
            np.add(b, yv, b)
            solve()
            np.copyto(un, b)
            np.subtract(b, uk, vn)
            np.multiply(a1, vn, vn)
            np.subtract(vn, vk, vn)
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
        return nodal(self.u[self.system.deflection_dofs])


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
    own: it enters the first step as f_1 does, so it acts like the force
    train f_0, -f_0, f_0, ... from t_1 on, bit for bit.  Arrays are
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
    (`impulse_kernel` states the rule).  At full rank the bases are
    square.  `rank` is (r_out, r_adj).  A load F = nodal(field_basis z)
    has the load coordinates P z and the squared space norm z' G z, with
    the `coupling` P = load_basis[1:-1]' field_basis and the `field_gram`
    G = field_basis' diag(w_x) field_basis, w_x the interior nodes'
    trapezoid weights.  The six arrays are read-only.
    """

    n_fft: int
    n_times: int
    outputs_t1: np.ndarray
    adjoint_t1: np.ndarray
    load_basis: np.ndarray
    field_basis: np.ndarray
    coupling: np.ndarray
    field_gram: np.ndarray

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
        """End slopes (2, n_times), theta_0 then theta_l, of nodal load
        values (n_nodes, n_times), as `solve_forward` gives them: the
        `output_series` of their `load_basis` coordinates."""
        if not np.all(np.isfinite(values)):
            raise DivergenceError("non-finite force input")
        return self.output_series(self.load_basis.T @ values)

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
        `field_basis` times the `adjoint_series`."""
        return nodal(self.field_basis @ self.adjoint_series(
            np.array([p, q], dtype=float)))

    def adjoint_series(self, pq):
        """The r_adj coordinate series (r_adj, n_times), in t, of the
        adjoint field of moment data pq = (p, q) in t: the convolution in
        tau = T - t of pq reversed in time, reversed back."""
        if not np.all(np.isfinite(pq)):
            raise DivergenceError("adjoint inputs must be finite")
        return self._convolve(self.adjoint_t1, pq[:, ::-1])[:, ::-1]


def convolve_t1(t1, series, n_fft):
    """Causal convolution of input series (n_in, n_times) with the
    responses to unit impulses at t_1, given as `n_fft`-point spectra
    (n_out, n_in, frequency), summed over the inputs.  The sample at t_0
    acts as the force train f_0, -f_0, f_0, ... from t_1 on; the result
    (n_out, n_times) vanishes at t_0."""
    n_times = series.shape[1]
    x = series[:, 1:].copy()
    x[:, 0::2] += series[:, :1]
    x[:, 1::2] -= series[:, :1]
    out = np.zeros((t1.shape[0], n_times))
    out[:, 1:] = irfft(np.einsum("oif,if->of", t1, rfft(x, n_fft)),
                       n_fft)[:, :n_times - 1]
    return out


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
    rows - C W above max(m, n) eps times the largest row.  At full rank
    r = m, W is an orthonormal basis of all m rows.

    Each round picks rows of the residual by pivoted Cholesky on its
    Gram and orthonormalizes them against W and among themselves by
    Gram-Schmidt twice.  The rounds repeat until the rule holds, because
    one round's Gram resolves rows only down to about sqrt(eps) of its
    largest."""
    m, n = rows.shape
    tol_sq = (max(m, n) * EPS) ** 2 * np.einsum(
        "ij,ij->i", rows, rows).max(initial=0.0)
    W = np.empty((m, n))
    # the first round's residual is the rows themselves, and each later
    # round's is formed in one buffer over the last one's
    residual, r = rows, 0
    while np.einsum("ij,ij->i", residual, residual).max(
            initial=0.0) > tol_sq:
        for j in _pivots(residual @ residual.T, tol_sq):
            w = residual[j].copy()
            for _ in range(2):
                w -= (W[:r] @ w) @ W[:r]
            W[r] = w / np.sqrt(w @ w)
            r += 1
        if r == m:
            break
        if residual is rows:
            residual = np.empty((m, n))
        np.matmul(rows @ W[:r].T, W[:r], out=residual)
        np.subtract(rows, residual, out=residual)
    W = W[:r].copy()
    return rows @ W.T, W


def _factored_spectra(rows, n_fft, n_in):
    """The basis C of `_factor_rows` and the `n_fft`-point spectra
    (n_in, r, frequency) of the series W, whose rows hold the histories
    of `n_in` inputs side by side; W goes when the call returns."""
    basis, rows = _factor_rows(rows)
    spectra = np.empty((n_in, len(rows), n_fft // 2 + 1), dtype=complex)
    for i, part in enumerate(np.hsplit(rows, n_in)):
        rfft(part, n_fft, out=spectra[i])
    return basis, spectra


def impulse_kernel(system, grid, u=None):
    """The ImpulseKernel of `system` on the time grid of `grid`, built
    from the displacement responses u of `end_rotation_responses`; the
    pass is made when the caller does not hand its u in.

    Each operator's responses are stacked as rows over the nodes, the
    two end rotations' histories side by side, and factored by
    `_factored_spectra` as 2 inputs: for the outputs the rows
    load_map' u_i, for the adjoint the interior deflection rows of u_i,
    one operator at a time."""
    n_fft = kernel_fft_length(grid)
    if u is None:
        u = end_rotation_responses(system, grid)[0]
    load_basis, outputs_t1 = _factored_spectra(
        np.hstack([system.load_map.T @ r for r in u]), n_fft, 2)
    field_basis, adjoint_t1 = _factored_spectra(
        np.hstack([r[system.deflection_dofs] for r in u]), n_fft, 2)
    w_x = trapezoid_weights(grid.n_nodes, grid.h)[1:-1]
    arrays = dict(
        outputs_t1=outputs_t1,
        adjoint_t1=np.ascontiguousarray(adjoint_t1.transpose(1, 0, 2)),
        load_basis=load_basis, field_basis=field_basis,
        coupling=load_basis[1:-1].T @ field_basis,
        field_gram=field_basis.T @ (w_x[:, None] * field_basis))
    # read-only, as the coefficient fields are: `beam_kernel` hands one
    # kernel to every caller on its beam
    for array in arrays.values():
        array.flags.writeable = False
    return ImpulseKernel(n_fft=n_fft, n_times=grid.n_times, **arrays)


# the store of the last beam asked for, under its key
_beam_kernels = {}


def beam_store(grid, coeffs):
    """The dict kept for the beam `coeffs` on `grid`, which `beam_kernel`
    and `verify.audit_operators` fill.  The key is the grid, the bounds,
    the bytes of the five read-only coefficient fields and the LAPACK
    backend, so that nothing built on numpy's OpenBLAS is reused on the
    scipy.linalg fallback.  One beam is kept: a new key drops the last
    one's store."""
    key = (grid, coeffs.bounds, _lapack.CONFIG,
           *(getattr(coeffs, name).tobytes()
             for name in ("rho_A", "mu", "T_r", "r", "kappa")))
    store = _beam_kernels.get(key)
    if store is None:
        _beam_kernels.clear()
        store = _beam_kernels[key] = {}
    return store


def beam_kernel(grid, coeffs):
    """The ImpulseKernel of the beam `coeffs` on `grid`, that is
    `impulse_kernel(assemble(grid, coeffs), grid)`, kept in its
    `beam_store`, where `verify.audit_operators` keeps the kernel it
    builds too."""
    store = beam_store(grid, coeffs)
    if "kernel" not in store:
        store["kernel"] = impulse_kernel(assemble(grid, coeffs), grid)
    return store["kernel"]


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


def energy_residual(traj, load):
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


def check_apriori_estimates(series, grid, coeffs, F_sq, slack, tags):
    """CheckRows of the six volume-norm and four boundary-trace a-priori
    bounds for a batch of scenarios, one list per tag: the norm series
    (7, n_scenarios, n_times) int u_t^2, int u_xx^2 and int u_xxt^2 dx,
    then the end rotations theta_0, theta_0', theta_l and theta_l', of
    loads of squared norms F_sq (n_scenarios,), with the constants C_e^2
    and C_1^2 of `compute_constants`."""
    b = coeffs.bounds
    ut_sq, uxx_sq, uxxt_sq, th0, th0_t, thL, thL_t = series
    wt = trapezoid_weights(grid.n_times, grid.dt)
    consts = compute_constants(grid.length, grid.final_time, b)
    Ce2, C1_sq = consts.Ce_sq, consts.C1_sq

    bounds = [
        ("ut_LinfL2", np.max(ut_sq, -1), Ce2 / b.rho0 * F_sq),
        ("ut_L2L2", ut_sq @ wt, (Ce2 - 1.0) * F_sq),
        ("uxx_LinfL2", np.max(uxx_sq, -1), Ce2 / b.r0 * F_sq),
        ("uxx_L2L2", uxx_sq @ wt, b.rho0 / b.r0 * (Ce2 - 1.0) * F_sq),
        ("uxxt_LinfL2", np.max(uxxt_sq, -1), Ce2 / b.kappa0 * F_sq),
        ("uxxt_L2L2", uxxt_sq @ wt, b.rho0 / b.kappa0 * (Ce2 - 1.0) * F_sq),
        ("trace_ux0", th0 ** 2 @ wt, C1_sq / b.r0 * F_sq),
        ("trace_uxt0", th0_t ** 2 @ wt, C1_sq / b.kappa0 * F_sq),
        ("trace_uxL", thL ** 2 @ wt, C1_sq / b.r0 * F_sq),
        ("trace_uxtL", thL_t ** 2 @ wt, C1_sq / b.kappa0 * F_sq),
    ]
    return estimate_rows("apriori_", tags, bounds, slack)


def estimate_rows(prefix, tags, bounds, slack):
    """CheckRows of (name, lhs, rhs) estimates whose lhs and rhs hold a
    value per tag, floored at EPS_FLOOR: one list of rows per tag."""
    names, lhs, rhs = zip(*bounds)
    return [[CheckRow.bound(prefix + n, tag, l, r, slack, EPS_FLOOR)
             for n, l, r in zip(names, ls, rs)]
            for tag, ls, rs in zip(tags, np.transpose(lhs).tolist(),
                                   np.transpose(rhs).tolist())]
