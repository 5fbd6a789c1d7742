"""Time integration of the damped beam and the related energy audits.

The scheme is Newmark with average acceleration (gamma=1/2, beta=1/4):
unconditionally stable, second order, and free of numerical dissipation,
so the discrete energy balance reflects only the physical damping terms.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, cho_solve_banded

from .assembly import assemble
from .errors import DivergenceError
from .model import (DEFAULT_SLACK, CheckRow, MeasurementSeries,
                    l2_norm_spacetime, trapezoid_weights)

EPS_FLOOR = 1e-14

_GAMMA = 0.5
_BETA = 0.25
_BANDWIDTH = 3


def _to_upper_banded(A):
    """Upper banded storage of a symmetric matrix for LAPACK pb-routines.

    Cubic Hermite DOFs couple only within an element, so every assembled
    matrix has bandwidth 3; a wider band raises ValueError.
    """
    if np.triu(A, _BANDWIDTH + 1).any():
        raise ValueError(f"matrix bandwidth exceeds {_BANDWIDTH}")
    ab = np.zeros((_BANDWIDTH + 1, A.shape[0]))
    for k in range(_BANDWIDTH + 1):
        ab[_BANDWIDTH - k, k:] = np.diagonal(A, k)
    return ab


def newmark_integrate(M, C, K, forces, dt):
    """Integrate M a + C v + K u = f(t) from rest.

    `forces` has shape (n_times, n_dofs) sampled at the time instants.
    Returns displacement, velocity and acceleration histories with shape
    (n_dofs, n_times).  M, C and K must be symmetric with bandwidth at
    most 3, as cubic Hermite elements give; the effective matrix is
    factored once with a banded symmetric Cholesky factorization.
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

    K_eff = K + a0 * M + a1 * C
    cb_eff = cholesky_banded(_to_upper_banded(K_eff))
    cb_M = cholesky_banded(_to_upper_banded(M))

    u = np.zeros((n, n_times))
    v = np.zeros((n, n_times))
    a = np.zeros((n, n_times))
    a[:, 0] = cho_solve_banded((cb_M, False), forces[0])

    for k in range(n_times - 1):
        uk, vk, ak = u[:, k], v[:, k], a[:, k]
        rhs = (forces[k + 1]
               + M @ (a0 * uk + a2 * vk + a3 * ak)
               + C @ (a1 * uk + a4 * vk + a5 * ak))
        un = cho_solve_banded((cb_eff, False), rhs)
        an = a0 * (un - uk) - a2 * vk - a3 * ak
        vn = vk + a6 * ak + a7 * an
        if not np.all(np.isfinite(un)):
            raise DivergenceError(f"non-finite state at step {k + 1}")
        u[:, k + 1], v[:, k + 1], a[:, k + 1] = un, vn, an
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
    stored = (np.einsum("ik,ij,jk->k", v, sys_.M, v)
              + np.einsum("ik,ij,jk->k", u, sys_.K_r, u)
              + np.einsum("ik,ij,jk->k", u, sys_.K_T, u))
    # viscous and Kelvin-Voigt terms both dissipate cumulatively
    damp_rate = (np.einsum("ik,ij,jk->k", v, sys_.C_ext, v)
                 + np.einsum("ik,ij,jk->k", v, sys_.K_kappa, v))
    forces = consistent_forces(sys_, load)
    work_rate = np.einsum("ki,ik->k", forces, v)
    dissipated = 2.0 * _cumtrapz(damp_rate, g.dt)
    work = 2.0 * _cumtrapz(work_rate, g.dt)
    lhs = stored + dissipated
    scale = max(np.max(np.abs(work)), EPS_FLOOR)
    return np.abs(lhs - work) / scale


def _cumtrapz(y, dt):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * dt * (y[1:] + y[:-1]))
    return out


def check_apriori_estimates(traj, coeffs, load, unit, slack=DEFAULT_SLACK,
                            scenario=""):
    """Discrete check of the solution and trace a-priori estimates.

    Evaluates the six volume-norm bounds and the four boundary-trace
    bounds with constants C_e^2 = exp(T / rho0) and
    C_1^2 = (5 l rho0 / 3)(C_e^2 - 1) from the declared bounds.
    `unit` is the (M, K_r) pair of `unit_norm_matrices`.  Returns a list
    of CheckRow records.
    """
    g = traj.grid
    b = coeffs.bounds
    M1, K1 = unit
    u, v = traj.u, traj.v
    wt = trapezoid_weights(g.n_times, g.dt)

    ut_sq = np.einsum("ik,ij,jk->k", v, M1, v)          # int u_t^2 dx
    uxx_sq = np.einsum("ik,ij,jk->k", u, K1, u)         # int u_xx^2 dx
    uxxt_sq = np.einsum("ik,ij,jk->k", v, K1, v)        # int u_xxt^2 dx

    F_sq = l2_norm_spacetime(load) ** 2
    Ce2 = np.exp(g.final_time / b.rho0)
    C1_sq = (5.0 * g.length * b.rho0 / 3.0) * (Ce2 - 1.0)

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
