"""Projected Landweber minimization of the misfit, plus a parametric
reconstruction mode for identifiable load families."""

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble
from .constants import compute_constants
from .errors import DivergenceError
from .forward import impulse_kernel
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

    From F = 0 every iterate is a combination of adjoint fields
    J'(F) = phi, scaled by the radial projection, so the loop keeps it
    as coordinates Z over the kernel's `field_basis` (`_FieldCoordinates`)
    and forms F once, when it stops.  An iteration makes one adjoint
    convolution, and each trial one output convolution.

    Stop rules: Morozov discrepancy 2J <= (tau_d * delta)^2, vanishing
    gradient, stagnation of J, or the iteration cap.  With the fixed rule
    three consecutive misfit increases raise DivergenceError, since the
    theory guarantees monotone decrease for omega <= 1 / L_G with an
    exact gradient; the continuous adjoint's is exact only to O(h^2).
    """
    config = config or InversionConfig()
    kernel = impulse_kernel(assemble(grid, coeffs), grid)
    coords = _FieldCoordinates(kernel, measurements, grid)
    C_F = config.C_F
    omega = config.omega or default_step(grid, coeffs, config)
    # a product, not a power: out of range it is inf, which the zero
    # start meets at once, where ** 2 would raise OverflowError
    morozov = config.tau_d * config.noise_delta
    morozov_sq = morozov * morozov

    state = InversionState(load=None, omega=omega, kernel_rank=kernel.rank)
    increases = 0
    Z = np.zeros((kernel.rank[1], grid.n_times))
    J, residual = coords.evaluate(Z)
    for n in range(config.max_iterations + 1):
        # the gradient's coordinates, reversed back in time and copied so
        # that the matrix products with them run in BLAS
        Y = kernel.adjoint_series(residual)[:, ::-1].copy()
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
            if len(state.J_history) >= 2 and J > state.J_history[-2]:
                increases += 1
                if increases >= 3:
                    raise DivergenceError(
                        "misfit increased for 3 consecutive fixed steps; "
                        "L_G may be underestimated, the discretization "
                        "inconsistent, or the continuous adjoint's "
                        "gradient, which is inexact, no descent direction "
                        "on the C_F sphere")
            else:
                increases = 0
            Z = coords.step(Z, Y, omega, C_F)
            J, residual = coords.evaluate(Z)
        else:
            Z, J, residual = _backtrack(Z, Y, J, omega, C_F, coords,
                                        residual)
    state.load = LoadField(kernel.system.nodal(coords.field_basis @ Z), grid)
    return state


class _FieldCoordinates:
    """The Landweber loop's operators on coordinates Z (r_adj, n_times)
    of the load F = nodal(field_basis Z), for one kernel and one data
    set; a basis of None is the identity.

    The outputs of F are the output convolution of P Z, with the
    (r_out, r_adj) matrix P = load_basis[1:-1]' field_basis, and the
    squared norm ||F||^2 is sum_t w_t z_t' G z_t, with the Gram matrix
    G = field_basis' diag(w_x) field_basis of the interior nodes'
    trapezoid weights and the trapezoid time weights w_t.
    """

    def __init__(self, kernel, measurements, grid):
        if measurements.n_times != grid.n_times:
            raise ValueError("measurements do not match the time grid")
        n = grid.n_nodes
        load_basis = (np.eye(n) if kernel.load_basis is None
                      else kernel.load_basis)
        field_basis = (np.eye(n - 2) if kernel.field_basis is None
                       else kernel.field_basis)
        w_x = trapezoid_weights(n, grid.h)[1:-1]
        self.kernel, self.field_basis = kernel, field_basis
        self.P = load_basis[1:-1].T @ field_basis
        self.G = field_basis.T @ (w_x[:, None] * field_basis)
        self.w_t = trapezoid_weights(grid.n_times, grid.dt)
        self.theta = np.array([measurements.theta0, measurements.thetaL])

    def evaluate(self, Z):
        """The misfit J at Z and the output residual (2, n_times)."""
        if not np.all(np.isfinite(Z)):
            raise DivergenceError("non-finite force input")
        residual = self.kernel.output_series(self.P @ Z) - self.theta
        sq = (residual * residual) @ self.w_t
        return float(0.5 * sq[0] + 0.5 * sq[1]), residual

    def sq_norm(self, Z):
        """The squared space-time norm ||F||^2 of the load at Z."""
        return float(np.einsum("it,it->t", self.G @ Z, Z) @ self.w_t)

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
