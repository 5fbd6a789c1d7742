"""Projected Landweber minimization of the misfit, plus a parametric
reconstruction mode for identifiable load families."""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .assembly import assemble
from .constants import compute_constants
from .errors import DivergenceError
from .forward import impulse_kernel
from .model import LoadField, project_admissible
from .objective import compute_gradient, evaluate_objective, spacetime_inner

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
        if self.step_rule not in ("fixed", "backtracking"):
            raise ValueError(f"unknown step rule: {self.step_rule}")


@dataclass
class InversionState:
    """Iterate and convergence history of one inversion run."""

    load: LoadField
    J_history: list = field(default_factory=list)
    grad_history: list = field(default_factory=list)
    discrepancy_history: list = field(default_factory=list)
    stop_reason: str = ""
    omega: float = 0.0

    @property
    def iterations(self):
        return len(self.J_history) - 1


def default_step(grid, coeffs, config):
    constants = compute_constants(grid.length, grid.final_time,
                                  coeffs.bounds, ct_variant=config.ct_variant)
    return 1.0 / constants.L_G


def run_inversion(measurements, coeffs, grid, config=None, initial=None):
    """Iterate F <- project(F - omega * J'(F)) until a stop rule fires.

    Stop rules: Morozov discrepancy 2J <= (tau_d * delta)^2, vanishing
    gradient, stagnation of J, or the iteration cap.  With the fixed rule
    three consecutive misfit increases raise DivergenceError, since the
    theory guarantees monotone decrease for omega <= 1 / L_G.
    """
    config = config or InversionConfig()
    system = assemble(grid, coeffs)
    load = initial if initial is not None else LoadField.zero(grid)
    C_F = config.C_F
    if C_F is not None:
        load = project_admissible(load, C_F)
    omega = config.omega or default_step(grid, coeffs, config)
    morozov_sq = (config.tau_d * config.noise_delta) ** 2

    state = InversionState(load=load, omega=omega)
    increases = 0
    evaluation = None      # misfit at `load`, once a line search made it
    for n in range(config.max_iterations + 1):
        grad, evaluation = compute_gradient(load, measurements, coeffs,
                                            grid, system=system,
                                            evaluation=evaluation)
        J = evaluation.J
        gnorm = grad.norm
        state.J_history.append(J)
        state.grad_history.append(gnorm)
        state.discrepancy_history.append(np.sqrt(2.0 * J))
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
            evaluation = None
        else:
            load, _, evaluation = _backtrack(load, grad, J, omega, C_F,
                                             measurements, coeffs, grid,
                                             system)
    return state


def _step(load, grad, step, C_F):
    new = LoadField(load.values - step * grad.values, load.grid)
    if C_F is not None:
        new = project_admissible(new, C_F)
    return new


def _backtrack(load, grad, J, omega, C_F, measurements, coeffs, grid,
               system):
    """Halve the trial step until the misfit decreases.

    Every call starts afresh at BACKTRACK_START * omega, far above the
    loose theoretical step.  Returns the accepted trial with its misfit
    and evaluation, or after BACKTRACK_HALVINGS trials (load, J, None).
    """
    step = omega * BACKTRACK_START
    for _ in range(BACKTRACK_HALVINGS):
        trial = _step(load, grad, step, C_F)
        evaluation = evaluate_objective(trial, measurements, coeffs, grid,
                                        system=system)
        if evaluation.J < J:
            return trial, evaluation.J, evaluation
        step *= 0.5
    return load, J, None


def _stagnated(J_history):
    if len(J_history) < STAGNATION_WINDOW + 1:
        return False
    recent = J_history[-(STAGNATION_WINDOW + 1):]
    ref = abs(recent[0]) + 1e-300
    return abs(recent[0] - recent[-1]) / ref < STAGNATION_RTOL


@dataclass(frozen=True)
class ParametricResult:
    family: object
    J: float
    converged: bool
    identifiable: bool
    n_evaluations: int


def reconstruct_parametric(measurements, coeffs, grid, family):
    """Minimize the misfit over the parameters of a load family, within
    the family's `bounds`.

    The gradient is the adjoint gradient chained through the family's
    parameter Jacobian.  The returned result carries an identifiability
    flag based on the rank of the output-sensitivity Gram matrix at the
    optimum.
    """
    system = assemble(grid, coeffs)
    kind = type(family)
    evals = [0]
    scale = []

    def objective(params):
        fam = kind.from_parameters(params)
        load = fam.field(grid)
        grad, evaluation = compute_gradient(load, measurements, coeffs,
                                            grid, system=system)
        evals[0] += 1
        jac = fam.jacobian(grid)
        g = np.array([spacetime_inner(grad.values, d.values, grid)
                      for d in jac])
        if not scale:
            # L-BFGS-B weighs each decrease against max(|J|, 1): scaled to
            # 1 at the start, a small misfit no longer ends the fit early
            scale.append(evaluation.J if evaluation.J > 0 else 1.0)
        return evaluation.J / scale[0], g / scale[0]

    result = minimize(objective, family.parameters, jac=True,
                      method="L-BFGS-B", bounds=family.bounds(grid))
    best = kind.from_parameters(result.x)
    identifiable = _identifiable(best, grid, system)
    return ParametricResult(family=best, J=float(result.fun) * scale[0],
                            converged=bool(result.success),
                            identifiable=identifiable,
                            n_evaluations=evals[0])


def _identifiable(family, grid, system):
    """Rank check of the parameter-to-output Jacobian (the outputs of each
    parameter derivative, by linearity of the PDE)."""
    kernel = impulse_kernel(system, grid)
    S = np.column_stack([np.concatenate(kernel.outputs(d.values))
                         for d in family.jacobian(grid)])
    sv = np.linalg.svd(S, compute_uv=False)
    if sv[0] == 0.0:
        return False
    return bool(sv[-1] / sv[0] > 1.0 / COND_LIMIT)
