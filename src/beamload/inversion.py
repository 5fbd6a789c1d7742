"""Projected Landweber minimization of the misfit, plus a parametric
reconstruction mode for identifiable load families."""

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import nodal
from .constants import compute_constants, transfer_constant
from .errors import DivergenceError
from .forward import _factor_rows, beam_kernel
from .model import LoadField, radial_scale, trapezoid_weights

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
        transfer_constant(1.0, self.ct_variant)  # raises on an unknown one


@dataclass
class InversionState:
    """Iterate and convergence history of one inversion run, the
    (r_out, r_adj) rank of the kernel it convolved with and the rank q of
    the coordinates its loop ran on (`_FieldCoordinates`)."""

    load: LoadField
    J_history: list = field(default_factory=list)
    grad_history: list = field(default_factory=list)
    stop_reason: str = ""
    omega: float = 0.0
    kernel_rank: tuple = ()
    loop_rank: int = 0

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

    From F = 0 every iterate is a combination of adjoint fields
    J'(F) = phi, scaled by the radial projection, so the loop keeps it
    as coordinates over the kernel's `field_basis`, cut by its rank rule
    to the q directions its coupling and field Gram resolve, beside the
    data series rho whose adjoint series they are (`_FieldCoordinates`),
    and forms F from rho once, at the kernel's full rank, when it stops.
    An iteration makes one adjoint convolution and each trial one output
    convolution, each of q + 2 series.

    Stop rules: Morozov discrepancy 2J <= (tau_d * delta)^2, vanishing
    gradient, stagnation of J, or the iteration cap.  With the fixed rule
    three consecutive misfit increases raise DivergenceError, since the
    theory guarantees monotone decrease for omega <= 1 / L_G with an
    exact gradient; the continuous adjoint's is exact only to O(h^2).
    """
    config = config or InversionConfig()
    kernel = beam_kernel(grid, coeffs)
    coords = _FieldCoordinates(kernel, measurements, grid)
    C_F = config.C_F
    omega = config.omega or default_step(grid, coeffs, config)
    # a product, not a power: out of range it is inf, which the zero
    # start meets at once, where ** 2 would raise OverflowError
    morozov = config.tau_d * config.noise_delta
    morozov_sq = morozov * morozov

    state = InversionState(load=None, omega=omega, kernel_rank=kernel.rank,
                           loop_rank=coords.q)
    Z = np.zeros((coords.q + 2, grid.n_times))
    J, residual = coords.evaluate(Z)
    for n in range(config.max_iterations + 1):
        Y = coords.gradient(residual)
        gnorm = np.sqrt(coords.sq_norm(Y))
        state.J_history.append(J)
        state.grad_history.append(gnorm)

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
            last = state.J_history[-4:]
            if n >= 3 and last[0] < last[1] < last[2] < last[3]:
                raise DivergenceError(
                    "misfit increased for 3 consecutive fixed steps; "
                    "L_G may be underestimated, the discretization "
                    "inconsistent, or the continuous adjoint's "
                    "gradient, which is inexact, no descent direction "
                    "on the C_F sphere")
            Z = coords.step(Z, Y, omega, C_F)
            J, residual = coords.evaluate(Z)
        else:
            Z, J, residual = _backtrack(Z, Y, J, omega, C_F, coords,
                                        residual)
    # the load's coordinates at the kernel's full rank are the adjoint
    # series of rho, the iterate's last two rows
    state.load = LoadField(nodal(
        kernel.field_basis @ kernel.adjoint_series(Z[coords.q:])), grid)
    return state


class _FieldCoordinates:
    """The Landweber loop's operators, for one kernel and one data set,
    on an iterate Z (q + 2, n_times): q coordinates over the data series
    rho in the rows Z[q:].

    The load's r_adj coordinates y over the kernel's `field_basis` are
    read only through its `coupling` P (the outputs are the output
    convolution of P y) and `field_gram` G (||F||^2 is sum_t w_t y_t' G
    y_t, with the trapezoid time weights w_t).  So z = V' y, on the q
    orthonormal rows V' that `_factor_rows`, the kernel's rank rule,
    keeps of [P / ||P||_F; G / ||G||_F]; a zero map is stacked unscaled,
    and rank 0 gives q = 0.  `kernel` convolves z, with the spectra of
    P V and of V' times the adjoint's, and `G` is V' G V.  Each step and
    radial scale from Z = 0 is linear in the output residuals, so y, the
    load at full rank, is the adjoint series of rho.
    """

    def __init__(self, kernel, measurements, grid):
        P, G = kernel.coupling, kernel.field_gram
        _, W = _factor_rows(np.vstack([A / (np.linalg.norm(A) or 1.0)
                                       for A in (P, G)]))
        self.V = V = W.T
        self.q = len(W)
        self.kernel = replace(
            kernel, outputs_t1=(P @ V).T @ kernel.outputs_t1,
            adjoint_t1=np.tensordot(V, kernel.adjoint_t1, (0, 0)))
        self.G = V.T @ G @ V
        self.w_t = trapezoid_weights(grid.n_times, grid.dt)
        self.theta = measurements.stacked(grid)

    def evaluate(self, Z):
        """The misfit J at Z and the output residual (2, n_times); a
        non-finite Z has non-finite outputs, which `output_series`
        refuses."""
        residual = self.kernel.output_series(Z[:self.q]) - self.theta
        sq = (residual * residual) @ self.w_t
        return float(0.5 * sq[0] + 0.5 * sq[1]), residual

    def gradient(self, residual):
        """The coordinates of the gradient J' = phi of an output residual:
        its q adjoint series over the residual."""
        return np.vstack([self.kernel.adjoint_series(residual), residual])

    def sq_norm(self, Z):
        """The squared space-time norm ||F||^2 of the load at Z."""
        z = Z[:self.q]
        return float(np.einsum("it,it->t", self.G @ z, z) @ self.w_t)

    def step(self, Z, Y, step, C_F):
        """Z - step Y, projected radially onto ||F||^2 <= C_F if given."""
        Z = Z - step * Y
        if C_F is not None:
            Z *= radial_scale(self.sq_norm(Z), C_F)
        return Z


def _backtrack(Z, Y, J, omega, C_F, coords, current):
    """Halve the trial step until the misfit decreases.

    Every call starts afresh at BACKTRACK_START * omega, far above the
    loose theoretical step.  `current` is the output residual at the
    coordinates Z.  Returns the accepted trial with its misfit and
    residual, or after BACKTRACK_HALVINGS trials (Z, J, current).
    """
    step = omega * BACKTRACK_START
    for _ in range(BACKTRACK_HALVINGS):
        trial = coords.step(Z, Y, step, C_F)
        J_trial, residual = coords.evaluate(trial)
        if J_trial < J:
            return trial, J_trial, residual
        step *= 0.5
    return Z, J, current


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
    kernel = beam_kernel(grid, coeffs)
    kind = type(family)
    w = np.sqrt(np.tile(trapezoid_weights(grid.n_times, grid.dt), 2))
    theta = w * measurements.stacked(grid).ravel()

    def outputs(values):
        return w * kernel.outputs(values).ravel()

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
