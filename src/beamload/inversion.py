"""Projected Landweber minimization of the misfit, plus a parametric
reconstruction mode for identifiable load families."""

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble
from .constants import compute_constants
from .errors import DivergenceError
from .forward import impulse_kernel
from .model import (LoadField, project_admissible, spacetime_inner,
                    trapezoid_weights)
from .objective import compute_gradient, evaluate_objective

GRAD_TOL = 1e-12
BACKTRACK_START = 2.0 ** 10     # first trial step, in multiples of omega
BACKTRACK_HALVINGS = 40
STAGNATION_RTOL = 1e-10
STAGNATION_WINDOW = 10
COND_LIMIT = 1e10               # identifiable below this condition number


@dataclass(frozen=True)
class InversionConfig:
    """Settings of the Landweber loop.

    omega defaults to 1 / L_G computed from the declared bounds; the
    backtracking rule halves the step until the misfit decreases, which
    is usually far faster because the theoretical constant is loose.
    """

    step_rule: str = "fixed"          # "fixed" | "backtracking"
    omega: float = None               # None -> 1 / L_G
    max_iterations: int = 500
    noise_delta: float = 0.0          # absolute noise level for Morozov
    tau_d: float = 1.1
    C_F: float = None                 # None -> constraint kept inactive
    ct_variant: str = "literal"

    def __post_init__(self):
        if self.omega is not None and not self.omega > 0:
            raise ValueError("omega must be positive")
        if not self.tau_d > 1.0:
            raise ValueError("tau_d must exceed 1")
        if not self.max_iterations >= 0:
            raise ValueError("max_iterations must be nonnegative")
        if not self.noise_delta >= 0:
            raise ValueError("noise_delta must be nonnegative")
        if self.C_F is not None and not self.C_F > 0:
            raise ValueError("C_F must be positive")
        if self.step_rule not in ("fixed", "backtracking"):
            raise ValueError(f"unknown step rule: {self.step_rule}")


@dataclass
class InversionState:
    """Iterate and convergence history of one inversion run, and the
    (r_out, r_adj) rank of the kernel it convolved with."""

    load: LoadField
    J_history: list = field(default_factory=list)
    grad_history: list = field(default_factory=list)
    stop_reason: str = ""
    omega: float = 0.0
    kernel_rank: tuple = ()

    @property
    def iterations(self):
        return len(self.J_history) - 1

    @property
    def discrepancy_history(self):
        """Output residual norms sqrt(2 J), one per iterate."""
        return [np.sqrt(2.0 * J) for J in self.J_history]


def default_step(grid, coeffs, config):
    constants = compute_constants(grid.length, grid.final_time,
                                  coeffs.bounds, ct_variant=config.ct_variant)
    return 1.0 / constants.L_G


def run_inversion(measurements, coeffs, grid, config=None):
    """Iterate F <- project(F - omega * J'(F)) from F = 0 until a stop rule
    fires.

    Stop rules: Morozov discrepancy 2J <= (tau_d * delta)^2, vanishing
    gradient, stagnation of J, or the iteration cap.  With the fixed rule
    three consecutive misfit increases raise DivergenceError, since the
    theory guarantees monotone decrease for omega <= 1 / L_G.
    """
    config = config or InversionConfig()
    kernel = impulse_kernel(assemble(grid, coeffs), grid)
    load = LoadField.zero(grid)
    C_F = config.C_F
    omega = config.omega or default_step(grid, coeffs, config)
    # a product, not a power: out of range it is inf, which the zero
    # start meets at once, where ** 2 would raise OverflowError
    morozov = config.tau_d * config.noise_delta
    morozov_sq = morozov * morozov

    state = InversionState(load=load, omega=omega, kernel_rank=kernel.rank)
    increases = 0
    evaluation = evaluate_objective(load, measurements, kernel)
    for n in range(config.max_iterations + 1):
        grad = compute_gradient(evaluation)
        J = evaluation.J
        gnorm = np.sqrt(spacetime_inner(grad, grad, grid))
        state.J_history.append(J)
        state.grad_history.append(gnorm)
        state.load = load

        if 2.0 * J <= morozov_sq:
            state.stop_reason = "discrepancy"
            break
        if gnorm < GRAD_TOL:
            state.stop_reason = "gradient"
            break
        if _stagnated(state.J_history):
            state.stop_reason = "stagnation"
            break
        if n == config.max_iterations:
            state.stop_reason = "max-iter"
            break

        if config.step_rule == "fixed":
            step = omega
            if len(state.J_history) >= 2 and J > state.J_history[-2]:
                increases += 1
                if increases >= 3:
                    raise DivergenceError(
                        "misfit increased for 3 consecutive fixed steps; "
                        "L_G may be underestimated or the discretization "
                        "inconsistent")
            else:
                increases = 0
            load = _step(load, grad, step, C_F)
            evaluation = evaluate_objective(load, measurements, kernel)
        else:
            load, _, evaluation = _backtrack(load, grad, J, omega, C_F,
                                             measurements, evaluation)
    return state


def _step(load, grad, step, C_F):
    new = LoadField(load.values - step * grad, load.grid)
    if C_F is not None:
        new = project_admissible(new, C_F)
    return new


def _backtrack(load, grad, J, omega, C_F, measurements, current):
    """Halve the trial step until the misfit decreases.

    Every call starts afresh at BACKTRACK_START * omega, far above the
    loose theoretical step.  `current` is the evaluation at `load`.
    Returns the accepted trial with its misfit and evaluation, or after
    BACKTRACK_HALVINGS trials (load, J, current).
    """
    step = omega * BACKTRACK_START
    for _ in range(BACKTRACK_HALVINGS):
        trial = _step(load, grad, step, C_F)
        evaluation = evaluate_objective(trial, measurements, current.kernel)
        if evaluation.J < J:
            return trial, evaluation.J, evaluation
        step *= 0.5
    return load, J, current


def _stagnated(J_history):
    if len(J_history) < STAGNATION_WINDOW + 1:
        return False
    recent = J_history[-(STAGNATION_WINDOW + 1):]
    ref = abs(recent[0]) + 1e-300
    return abs(recent[0] - recent[-1]) / ref < STAGNATION_RTOL


def minimize(fun, x0, **kwargs):
    """`scipy.optimize.least_squares`, imported on the first parametric
    fit so that no other run pays for loading scipy.optimize."""
    from scipy.optimize import least_squares
    return least_squares(fun, x0, **kwargs)


@dataclass(frozen=True)
class ParametricResult:
    family: object
    J: float
    converged: bool
    identifiable: bool
    n_evaluations: int
    kernel_rank: tuple


def reconstruct_parametric(measurements, coeffs, grid, family):
    """Fit the parameters of a load family by bounded least squares,
    from the family's start clipped into its `bounds` box.

    The residual is w (outputs(F(p)) - theta) over both channels, with w
    the square roots of the trapezoid time weights, so its cost
    0.5 ||r||^2 is the misfit J.  The outputs are linear in the load, so
    the Jacobian S holds the weighted outputs of each parameter
    derivative; the fit is identifiable when S at the optimum has a
    condition number below COND_LIMIT.
    """
    kernel = impulse_kernel(assemble(grid, coeffs), grid)
    kind = type(family)
    w = np.sqrt(np.tile(trapezoid_weights(grid.n_times, grid.dt), 2))
    theta = w * np.concatenate([measurements.theta0, measurements.thetaL])

    def outputs(values):
        return w * np.concatenate(kernel.outputs(values))

    def residual(params):
        return outputs(kind.from_parameters(params).field(grid).values) \
            - theta

    def jacobian(params):
        return np.column_stack([outputs(d.values) for d in
                                kind.from_parameters(params).jacobian(grid)])

    box = family.bounds(grid)
    result = minimize(residual, np.clip(family.parameters, *box),
                      jac=jacobian, bounds=box)
    sv = np.linalg.svd(result.jac, compute_uv=False)
    return ParametricResult(family=kind.from_parameters(result.x),
                            J=float(result.cost),
                            converged=bool(result.success),
                            identifiable=bool(sv[-1] > sv[0] / COND_LIMIT),
                            n_evaluations=int(result.nfev),
                            kernel_rank=kernel.rank)
