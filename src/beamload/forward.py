"""Time integration of the damped beam and the related energy audits.

The scheme is Newmark with average acceleration (gamma=1/2, beta=1/4):
unconditionally stable, second order, and free of numerical dissipation,
so the discrete energy balance reflects only the physical damping terms.
"""

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import cholesky_banded
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrs
from scipy.sparse import dia_array

from .assembly import assemble
from .constants import compute_constants
from .errors import DimensionError, DivergenceError
from .model import (DEFAULT_SLACK, CheckRow, MeasurementSeries,
                    l2_norm_spacetime, trapezoid_weights)

EPS_FLOOR = 1e-14

_GAMMA = 0.5
_BETA = 0.25


def _banded_solve(cb, b):
    """Solve with an upper banded Cholesky factor (LAPACK dpbtrs)."""
    x, info = dpbtrs(cb, b)
    if info != 0:
        raise ValueError(f"illegal argument {-info} to dpbtrs")
    return x


def newmark_integrate(M, C, K, forces, dt):
    """Integrate M a + C v + K u = f(t) from rest.

    M, C and K are symmetric matrices in LAPACK upper band storage, shape
    (k + 1, n_dofs) with ab[k + i - j, j] = A[i, j], as `assembly`
    stores them; the bandwidth k is read from the storage.  `forces` has
    shape (n_times, n_dofs) sampled at the time instants.  Returns
    displacement, velocity and acceleration histories with shape
    (n_dofs, n_times).  The effective matrix K + a0 M + a1 C is summed
    band by band and factored once with a banded symmetric Cholesky
    factorization; each step makes two banded matvecs and one banded
    solve.
    """
    n_times, n = forces.shape
    if not np.all(np.isfinite(forces)):
        raise DivergenceError("non-finite force input")
    a0 = 1.0 / (_BETA * dt ** 2)
    a1 = _GAMMA / (_BETA * dt)
    a2 = 1.0 / (_BETA * dt)
    a3 = 1.0 / (2.0 * _BETA) - 1.0
    a4 = _GAMMA / _BETA - 1.0
    a5 = dt / 2.0 * (_GAMMA / _BETA - 2.0)
    a6 = dt * (1.0 - _GAMMA)
    a7 = _GAMMA * dt

    cb_eff = cholesky_banded(K + a0 * M + a1 * C)
    cb_M = cholesky_banded(M)
    kd = M.shape[0] - 1

    u = np.zeros((n, n_times))
    v = np.zeros((n, n_times))
    a = np.zeros((n, n_times))
    a[:, 0] = _banded_solve(cb_M, forces[0])

    # the BLAS matvecs and LAPACK triangular solves are called directly on
    # the bands and the state is checked for finiteness once per pass, not
    # once per step; a pass that diverges runs on to the end without
    # floating-point warnings
    with np.errstate(all="ignore"):
        for k in range(n_times - 1):
            uk, vk, ak = u[:, k], v[:, k], a[:, k]
            rhs = (forces[k + 1]
                   + dsbmv(kd, 1.0, M, a0 * uk + a2 * vk + a3 * ak)
                   + dsbmv(kd, 1.0, C, a1 * uk + a4 * vk + a5 * ak))
            un = _banded_solve(cb_eff, rhs)
            an = a0 * (un - uk) - a2 * vk - a3 * ak
            vn = vk + a6 * ak + a7 * an
            u[:, k + 1], v[:, k + 1], a[:, k + 1] = un, vn, an
    bad = np.flatnonzero(~np.isfinite(u).all(axis=0))
    if bad.size:
        raise DivergenceError(f"non-finite state at step {bad[0]}")
    return u, v, a


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
        g = self.grid
        w = np.zeros((g.n_nodes, g.n_times))
        w[self.system.interior_nodes, :] = self.u[self.system.deflection_dofs, :]
        return w


def consistent_forces(system, load):
    """Consistent load vectors (n_times, n_dofs) of a nodal load field."""
    return (system.load_map @ load.values).T


@dataclass(frozen=True)
class ImpulseKernel:
    """Discrete impulse responses of one assembled system on one time grid.

    Newmark is linear and shift-invariant, so the end-slope outputs and
    the adjoint deflection are causal convolutions of their inputs with
    the responses to a unit impulse at an end-rotation DOF at t_1, kept
    as `n_fft`-point spectra.  A force f_0 at t_0 needs no response of
    its own: the scheme starts from a_0 = M^-1 f_0, which acts exactly
    like the force train f_0, -f_0, f_0, ... from t_1 on.  Arrays are
    (n_out, n_in, frequency):

    - `outputs_t1`: out = (theta_0, theta_l), in = nodes.  The responses
      to an impulse at each end rotation, folded through `load_map`, give
      the outputs of a nodal load because the Newmark pencil is symmetric
      (reciprocity).
    - `adjoint_t1`: out = `deflection_dofs`, in = (theta_0, theta_l).
    """

    n_fft: int
    outputs_t1: np.ndarray
    adjoint_t1: np.ndarray

    def _convolve(self, t1, series):
        """Responses applied to input series (n_in, n_times), summed over
        the inputs; the responses vanish at t_0."""
        n_times = series.shape[1]
        train = (-1.0) ** np.arange(n_times - 1)
        spectrum = rfft(series[:, 1:] + np.outer(series[:, 0], train),
                        self.n_fft)
        out = np.zeros((t1.shape[0], n_times))
        out[:, 1:] = irfft(np.einsum("oif,if->of", t1, spectrum),
                           self.n_fft)[:, :n_times - 1]
        return out

    def outputs(self, values):
        """End slopes (theta_0, theta_l) of nodal load values
        (n_nodes, n_times), as `solve_forward` gives them."""
        if not np.all(np.isfinite(values)):
            raise DivergenceError("non-finite force input")
        theta = self._convolve(self.outputs_t1, values)
        if not np.all(np.isfinite(theta)):
            raise DivergenceError("non-finite output")
        return theta[0], theta[1]

    def adjoint_deflection(self, p, q):
        """Adjoint field at `deflection_dofs` (n_deflections, n_times) of
        moment data p, q, as `solve_adjoint` gives it."""
        pq = np.array([p, q], dtype=float)
        if not np.all(np.isfinite(pq)):
            raise DimensionError("adjoint inputs must be finite")
        phi_tau = self._convolve(self.adjoint_t1, pq[:, ::-1])
        return phi_tau[:, ::-1]


def impulse_kernel(system, grid):
    """The ImpulseKernel of `system` on the time grid of `grid`: built by
    two Newmark passes on first use, then kept on the system."""
    key = (grid.n_steps, grid.final_time)
    kernel = system.kernels.get(key)
    if kernel is None:
        kernel = system.kernels[key] = _build_kernel(system, grid)
    return kernel


def _build_kernel(system, grid):
    n_fft = next_fast_len(2 * grid.n_steps - 1, real=True)
    n_freq = n_fft // 2 + 1
    n_nodes, n_defl = system.load_map.shape[1], len(system.deflection_dofs)
    C = system.C_ext + system.K_kappa
    K = system.K_T + system.K_r
    # filled in place as each response is computed, so that no more than
    # one raw response is alive at a time
    kernel = ImpulseKernel(
        n_fft=n_fft,
        outputs_t1=np.empty((2, n_nodes, n_freq), dtype=complex),
        adjoint_t1=np.empty((n_defl, 2, n_freq), dtype=complex))
    for i, dof in enumerate((system.theta0_dof, system.thetaL_dof)):
        impulse = np.zeros((grid.n_times, system.n_dofs))
        impulse[1, dof] = 1.0
        u = newmark_integrate(system.M, C, K, impulse, grid.dt)[0]
        # the response to the impulse at t_1 starts one step late
        kernel.outputs_t1[i] = rfft(system.load_map.T @ u[:, 1:], n_fft)
        kernel.adjoint_t1[:, i] = rfft(u[system.deflection_dofs, 1:], n_fft)
    return kernel


def solve_forward(coeffs, load, grid, system=None):
    """Solve the forward initial boundary value problem.

    Returns a BeamTrajectory whose outputs are the end-rotation DOF
    histories theta_0(t) = u_x(0, t) and theta_l(t) = u_x(l, t).
    A pre-assembled SystemMatrices may be passed to skip assembly.
    """
    if system is None:
        system = assemble(grid, coeffs)
    forces = consistent_forces(system, load)
    u, v, _ = newmark_integrate(system.M, system.C_ext + system.K_kappa,
                                system.K_T + system.K_r, forces, grid.dt)
    outputs = MeasurementSeries(theta0=u[system.theta0_dof].copy(),
                                thetaL=u[system.thetaL_dof].copy())
    return BeamTrajectory(u=u, v=v, outputs=outputs, grid=grid, system=system)


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
    dissipated = 2.0 * _cumtrapz(damp_rate, g.dt)
    work = 2.0 * _cumtrapz(work_rate, g.dt)
    lhs = stored + dissipated
    scale = max(np.max(np.abs(work)), EPS_FLOOR)
    return np.abs(lhs - work) / scale


def quadratic_forms(ab, X):
    """x' A x for every column x of X, with the symmetric A in upper band
    storage ab[k + i - j, j] = A[i, j].

    A X is formed first, so that the large stiffness entries cancel
    within each row before the column sums; summing the band's terms
    over all rows at once loses up to 150 times more to round-off.
    """
    k, n = ab.shape[0] - 1, ab.shape[1]
    # the band rows are the upper diagonals, offsets k..0, of a DIA
    # array; each lower diagonal is its mirror moved left
    data = np.vstack([ab] + [np.roll(ab[k - d], -d) for d in range(1, k + 1)])
    A = dia_array((data, np.arange(k, -k - 1, -1)), shape=(n, n))
    return np.einsum("ij,ij->j", A @ X, X)


def _cumtrapz(y, dt):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * dt * (y[1:] + y[:-1]))
    return out


def check_apriori_estimates(traj, coeffs, load, unit, slack=DEFAULT_SLACK,
                            scenario=""):
    """Discrete check of the solution and trace a-priori estimates.

    Evaluates the six volume-norm bounds and the four boundary-trace
    bounds with the constants C_e^2 and C_1^2 of `compute_constants`.
    `unit` is the (M, K_r) pair of `unit_norm_matrices`.  Returns a list
    of CheckRow records.
    """
    g = traj.grid
    b = coeffs.bounds
    M1, K1 = unit
    u, v = traj.u, traj.v
    wt = trapezoid_weights(g.n_times, g.dt)

    ut_sq = quadratic_forms(M1, v)          # int u_t^2 dx
    uxx_sq = quadratic_forms(K1, u)         # int u_xx^2 dx
    uxxt_sq = quadratic_forms(K1, v)        # int u_xxt^2 dx

    F_sq = l2_norm_spacetime(load) ** 2
    consts = compute_constants(g.length, g.final_time, b)
    Ce2, C1_sq = consts.Ce_sq, consts.C1_sq

    th0 = traj.outputs.theta0
    thL = traj.outputs.thetaL
    th0_t = v[traj.system.theta0_dof]
    thL_t = v[traj.system.thetaL_dof]

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


def estimate_rows(prefix, scenario, bounds, slack):
    """CheckRows of (name, lhs, rhs) estimates, floored at EPS_FLOOR."""
    return [CheckRow.bound(prefix + name, scenario, lhs, rhs, slack,
                           EPS_FLOOR)
            for name, lhs, rhs in bounds]
