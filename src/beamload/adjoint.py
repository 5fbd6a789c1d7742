"""Backward (adjoint) problem solved through time reversal.

Under tau = T - t the final-value problem for phi turns into an initial
value problem driven by moment data at the end rotations.  The sign flips
of the odd time derivatives make the transformed system reuse the forward
matrices verbatim; only the boundary forcing differs.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import assemble
from .constants import compute_constants
from .errors import DivergenceError
from .forward import estimate_rows, newmark_integrate, quadratic_forms
from .model import trapezoid_weights


@dataclass(frozen=True)
class AdjointField:
    """Adjoint solution phi in original time, on the reduced DOFs of the
    assembled system (`assembly.nodal` of the rows at its
    `deflection_dofs` gives the nodal field)."""

    phi: np.ndarray
    phi_t: np.ndarray
    grid: object


def solve_adjoint(coeffs, p, q, grid, system=None):
    """Solve the backward problem with moment data (p, q).

    p and q are time series on the grid (typically output residuals).
    The problem is integrated forward in tau = T - t with the same
    Newmark scheme as the forward solver and mapped back to t, so
    phi(., T) = phi_t(., T) = 0 exactly.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise DivergenceError("adjoint inputs must be finite")
    if p.shape != (grid.n_times,) or q.shape != (grid.n_times,):
        raise ValueError("boundary series must match the time grid")
    if system is None:
        system = assemble(grid, coeffs)
    # the moment data force the end rotations, in reversed time; this
    # sign is the one that makes the discrete duality identity hold
    forces = np.zeros((grid.n_times, system.n_dofs))
    forces[:, system.theta0_dof] = p[::-1]
    forces[:, system.thetaL_dof] = q[::-1]
    phi, rate = newmark_integrate(system.M, system.C, system.K, forces,
                                  grid.dt)
    # back to t, where phi_t = -d phi / d tau
    return AdjointField(phi=phi[:, ::-1], phi_t=(-rate)[:, ::-1], grid=grid)


def adjoint_series(field, unit):
    """The norm series that the adjoint estimates bound, at every
    instant: int phi_xx^2, int phi_t^2 and int phi_xxt^2 dx.  `unit` is
    the (M, K_r) pair of `unit_norm_matrices`."""
    M1, K1 = unit
    return (quadratic_forms(K1, field.phi), quadratic_forms(M1, field.phi_t),
            quadratic_forms(K1, field.phi_t))


def check_adjoint_estimates(series, grid, coeffs, dp, dq, slack, tags,
                            ct_variant="literal"):
    """CheckRows of the six adjoint-solution bounds for a batch of
    scenarios, one list per tag: the norm series (3, n_scenarios,
    n_times), in the order of `adjoint_series`, of moment inputs whose
    derivative series are dp and dq (n_scenarios, n_times).  Bounds use
    C_0^2 of `compute_constants` and the combined input-derivative norm
    ||p'||^2 + ||q'||^2.
    """
    b = coeffs.bounds
    pxx_sq, pt_sq, pxxt_sq = series
    wt = trapezoid_weights(grid.n_times, grid.dt)

    T = grid.final_time
    C0_sq = compute_constants(grid.length, T, b, ct_variant=ct_variant).C0_sq
    Qp_sq = dp ** 2 @ wt + dq ** 2 @ wt
    eT = np.exp(T)

    bounds = [
        ("phixx_LinfL2", np.max(pxx_sq, -1), eT * C0_sq * Qp_sq),
        ("phixx_L2L2", pxx_sq @ wt, (eT - 1.0) * C0_sq * Qp_sq),
        ("phit_LinfL2", np.max(pt_sq, -1),
         eT * b.r0 / (2.0 * b.rho0) * C0_sq * Qp_sq),
        ("phit_L2L2", pt_sq @ wt,
         (eT - 1.0) * b.r0 / (2.0 * b.rho0) * C0_sq * Qp_sq),
        ("phixxt_LinfL2", np.max(pxxt_sq, -1),
         eT * b.r0 / (2.0 * b.kappa0) * C0_sq * Qp_sq),
        ("phixxt_L2L2", pxxt_sq @ wt,
         (eT - 1.0) * b.r0 / (2.0 * b.kappa0) * C0_sq * Qp_sq),
    ]
    return estimate_rows("adjoint_", tags, bounds, slack)
