"""Backward (adjoint) problem solved through time reversal.

Under tau = T - t the final-value problem for phi turns into an initial
value problem driven by moment data at the end rotations.  The sign flips
of the odd time derivatives make the transformed system reuse the forward
matrices verbatim; only the boundary forcing differs.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import assemble, natural_bc_load
from .errors import DimensionError
from .forward import estimate_rows, newmark_integrate, quadratic_forms
from .model import DEFAULT_SLACK, trapezoid_weights


@dataclass(frozen=True)
class AdjointField:
    """Adjoint solution phi in original time, with its moment inputs."""

    phi: np.ndarray
    phi_t: np.ndarray
    grid: object
    system: object
    p: np.ndarray
    q: np.ndarray
    dp: np.ndarray = None
    dq: np.ndarray = None

    def full_values(self):
        """phi sampled at all nodes (end nodes are zero)."""
        g = self.grid
        w = np.zeros((g.n_nodes, g.n_times))
        w[self.system.interior_nodes, :] = self.phi[self.system.deflection_dofs, :]
        return w


def solve_adjoint(coeffs, p, q, grid, system=None, dp=None, dq=None):
    """Solve the backward problem with moment data (p, q).

    p and q are time series on the grid (typically output residuals).
    The problem is integrated forward in tau = T - t with the same
    Newmark scheme as the forward solver and mapped back to t, so
    phi(., T) = phi_t(., T) = 0 exactly.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise DimensionError("adjoint inputs must be finite")
    if system is None:
        system = assemble(grid, coeffs)
    forces = natural_bc_load(p[::-1], q[::-1], grid)
    phi_tau, dphi_tau, _ = newmark_integrate(
        system.M, system.C_ext + system.K_kappa,
        system.K_T + system.K_r, forces, grid.dt)
    # map tau back to t; phi_t = -dphi/dtau reversed in time
    phi = phi_tau[:, ::-1].copy()
    phi_t = -dphi_tau[:, ::-1]
    return AdjointField(phi=phi, phi_t=phi_t, grid=grid, system=system,
                        p=p, q=q, dp=dp, dq=dq)


def transfer_constant(T, variant="literal"):
    """The time constant entering the adjoint bound C_0.

    "literal" follows the stated formula max(2/T, 1+T); "corrected"
    uses max(2/T, 1 + 2T/3), matching the coefficients appearing in the
    derivation.
    """
    if variant == "literal":
        return max(2.0 / T, 1.0 + T)
    if variant == "corrected":
        return max(2.0 / T, 1.0 + 2.0 * T / 3.0)
    raise ValueError(f"unknown C_T variant: {variant}")


def check_adjoint_estimates(field, coeffs, unit, slack=DEFAULT_SLACK,
                            scenario="", ct_variant="literal"):
    """Discrete check of the six adjoint-solution bounds.

    Needs the derivative series of the moment inputs; raises if they were
    not supplied.  Bounds use C_0^2 = 20 l C_T / (3 r0^2) and the combined
    input-derivative norm ||p'||^2 + ||q'||^2.  `unit` is the (M, K_r)
    pair of `unit_norm_matrices`.
    """
    if field.dp is None or field.dq is None:
        raise DimensionError("adjoint estimate check needs p', q' series")
    g = field.grid
    b = coeffs.bounds
    M1, K1 = unit
    wt = trapezoid_weights(g.n_times, g.dt)

    phi, phi_t = field.phi, field.phi_t
    pxx_sq = quadratic_forms(K1, phi)
    pt_sq = quadratic_forms(M1, phi_t)
    pxxt_sq = quadratic_forms(K1, phi_t)

    T = g.final_time
    C_T = transfer_constant(T, ct_variant)
    C0_sq = 20.0 * g.length * C_T / (3.0 * b.r0 ** 2)
    Qp_sq = float(wt @ np.asarray(field.dp) ** 2
                  + wt @ np.asarray(field.dq) ** 2)
    eT = np.exp(T)

    bounds = [
        ("phixx_LinfL2", float(np.max(pxx_sq)), eT * C0_sq * Qp_sq),
        ("phixx_L2L2", float(wt @ pxx_sq), (eT - 1.0) * C0_sq * Qp_sq),
        ("phit_LinfL2", float(np.max(pt_sq)),
         eT * b.r0 / (2.0 * b.rho0) * C0_sq * Qp_sq),
        ("phit_L2L2", float(wt @ pt_sq),
         (eT - 1.0) * b.r0 / (2.0 * b.rho0) * C0_sq * Qp_sq),
        ("phixxt_LinfL2", float(np.max(pxxt_sq)),
         eT * b.r0 / (2.0 * b.kappa0) * C0_sq * Qp_sq),
        ("phixxt_L2L2", float(wt @ pxxt_sq),
         (eT - 1.0) * b.r0 / (2.0 * b.kappa0) * C0_sq * Qp_sq),
    ]
    return estimate_rows("adjoint_", scenario, bounds, slack)
