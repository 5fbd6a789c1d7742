"""Input-output operators, misfit functional and its adjoint gradient."""

from dataclasses import dataclass

import numpy as np

from .forward import solve_forward
from .model import time_inner


@dataclass(frozen=True)
class ObjectiveEvaluation:
    """Misfit value with the residual series feeding the adjoint."""

    J: float
    p: np.ndarray          # u_x(0,.;F) - theta_0
    q: np.ndarray          # u_x(l,.;F) - theta_l
    kernel: object


def apply_io_operators(load, coeffs, grid):
    """Evaluate the maps F -> u_x(0, .; F) and F -> u_x(l, .; F)."""
    traj = solve_forward(coeffs, load, grid)
    return traj.outputs.theta0, traj.outputs.thetaL


def evaluate_objective(load, measurements, kernel):
    """Tikhonov misfit J(F) = 0.5 (||p||^2 + ||q||^2) of the output
    residuals p and q, with trapezoidal time quadrature on the grid of
    `load`.

    The outputs come from the impulse kernel, which equals
    `apply_io_operators` to Newmark round-off.
    """
    grid = load.grid
    p, q = kernel.outputs(load.values) - measurements.stacked(grid)
    J = 0.5 * time_inner(p, p, grid.dt) + 0.5 * time_inner(q, q, grid.dt)
    return ObjectiveEvaluation(J=J, p=p, q=q, kernel=kernel)


def compute_gradient(evaluation):
    """Adjoint gradient of the misfit at an evaluated load, J'(F) = phi:
    the nodal (node, time) adjoint field of `solve_adjoint` driven by the
    output residuals, convolved from the impulse kernel.

    Raw (unsmoothed) noisy measurements are accepted but the gradient may
    be polluted; smooth them to H1 first.
    """
    return evaluation.kernel.adjoint(evaluation.p, evaluation.q)
