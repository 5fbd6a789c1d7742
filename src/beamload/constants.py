"""The one home of every closed-form constant of the estimate chain.

Every constant is computed from the declared coefficient bounds, not from
sampled field minima.
"""

from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class ConstantSet:
    """Named constants of the estimate chain.

    Ce_sq:  Gronwall constant exp(T / rho0).
    C1_sq:  trace constant (5 l rho0 / 3)(Ce^2 - 1).
    C_L:    Lipschitz constant of the input-output maps, C1 / sqrt(r0).
    C_J:    Lipschitz constant of the misfit functional.
    C_T:    time constant of the adjoint bound (variant recorded).
    C0_sq:  adjoint trace constant 20 l C_T / (3 r0^2).
    L_G:    Lipschitz constant of the misfit gradient.
    """

    Ce_sq: float
    C1_sq: float
    C_L: float
    C_J: float
    C_T: float
    C0_sq: float
    L_G: float
    ct_variant: str

    @property
    def C1(self):
        return np.sqrt(self.C1_sq)


def compute_constants(length, final_time, bounds, C_F=1.0,
                      theta0_norm=0.0, thetaL_norm=0.0,
                      ct_variant="literal"):
    """Evaluate every closed-form constant.

    C_F is the admissible-radius bound on ||F||^2; the measurement norms
    enter only the misfit Lipschitz constant C_J.
    """
    if length <= 0 or final_time <= 0:
        raise ValueError("length and final_time must be positive")
    if bounds.rho0 <= 0 or bounds.r0 <= 0 or bounds.kappa0 <= 0:
        raise ValueError("rho0, r0, kappa0 must be positive")
    Ce_sq = float(np.exp(final_time / bounds.rho0))
    C1_sq = (5.0 * length * bounds.rho0 / 3.0) * (Ce_sq - 1.0)
    C1 = np.sqrt(C1_sq)
    C_L = C1 / np.sqrt(bounds.r0)
    C_J = (2.0 * C1 * C_F / np.sqrt(bounds.r0)
           + theta0_norm + thetaL_norm) * C_L
    C_T = transfer_constant(final_time, ct_variant)
    C0_sq = 20.0 * length * C_T / (3.0 * bounds.r0 ** 2)
    L_G = (np.sqrt((np.exp(final_time) - 1.0) / (2.0 * bounds.kappa0))
           * length ** 2 * np.sqrt(C0_sq) * C1)
    return ConstantSet(Ce_sq=Ce_sq, C1_sq=C1_sq, C_L=float(C_L),
                       C_J=float(C_J), C_T=float(C_T), C0_sq=float(C0_sq),
                       L_G=float(L_G), ct_variant=ct_variant)
