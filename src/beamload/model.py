"""Physical model data: grids, coefficient fields, loads and measurements.

Coefficient fields are node-sampled and interpreted as piecewise linear
inside elements.  All space-time integrals use trapezoidal quadrature on
the grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError


def trapezoid_weights(n_points, spacing):
    """Quadrature weights of the composite trapezoidal rule."""
    w = np.full(n_points, spacing)
    w[0] = w[-1] = 0.5 * spacing
    return w


def spacetime_inner(a, b, grid):
    """Trapezoidal L2(Omega_T) inner product of nodal (node, time) arrays."""
    wx = trapezoid_weights(grid.n_nodes, grid.h)
    wt = trapezoid_weights(grid.n_times, grid.dt)
    return float(wx @ (a * b) @ wt)


def time_inner(a, b, dt):
    """Trapezoidal L2(0, T) inner product of two time series."""
    a, b = np.asarray(a), np.asarray(b)
    return float(trapezoid_weights(len(a), dt) @ (a * b))


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid on (0, length) x (0, final_time)."""

    length: float
    final_time: float
    n_elements: int
    n_steps: int

    def __post_init__(self):
        if not (self.length > 0 and self.final_time > 0):
            raise ValueError("length and final_time must be positive")
        if not (self.n_elements >= 4 and self.n_steps >= 4):
            raise ValueError("need at least 4 elements and 4 time steps")

    @property
    def h(self):
        return self.length / self.n_elements

    @property
    def dt(self):
        return self.final_time / self.n_steps

    @property
    def n_nodes(self):
        return self.n_elements + 1

    @property
    def n_times(self):
        return self.n_steps + 1

    @property
    def nodes(self):
        return np.linspace(0.0, self.length, self.n_nodes)

    @property
    def times(self):
        return np.linspace(0.0, self.final_time, self.n_times)

    def refined(self):
        """Grid with both mesh and time step halved."""
        return SpaceTimeGrid(self.length, self.final_time,
                             self.n_elements * 2, self.n_steps * 2)


@dataclass(frozen=True)
class CoefficientBounds:
    """Declared lower/upper bounds of the five coefficient fields."""

    rho0: float
    rho1: float
    mu0: float
    mu1: float
    Tr0: float
    Tr1: float
    r0: float
    r1: float
    kappa0: float
    kappa1: float


# each field with its declared bounds, and whether its lower bound must
# be strictly positive (rho_A, r, kappa) or may vanish (mu, T_r)
_ADMISSIBLE = (("rho_A", "rho0", "rho1", True), ("mu", "mu0", "mu1", False),
               ("T_r", "Tr0", "Tr1", False), ("r", "r0", "r1", True),
               ("kappa", "kappa0", "kappa1", True))


@dataclass(frozen=True)
class CoefficientSet:
    """Node-sampled coefficient fields with their admissibility bounds.

    Fields: mass per unit length rho_A, external (viscous) damping mu,
    axial tension T_r, flexural rigidity r and Kelvin-Voigt damping kappa.
    Construction keeps a read-only float64 copy of each field and raises
    ValidationError with one line per violation: a non-finite sample or
    bound, a sample outside its bounds, or a lower bound that is not
    positive (rho_A, r, kappa) or is negative (mu, T_r).  A line names
    the first offending node (-1 for a bound) and how many nodes violate
    the condition.  Fields whose lengths differ from rho_A's raise
    DimensionError.
    """

    rho_A: np.ndarray
    mu: np.ndarray
    T_r: np.ndarray
    r: np.ndarray
    kappa: np.ndarray
    bounds: CoefficientBounds

    def __post_init__(self):
        n = len(self.rho_A)
        violations = []
        for name, lo_name, hi_name, strict in _ADMISSIBLE:
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
            if len(values) != n:
                raise DimensionError(
                    f"{name} has {len(values)} samples, expected {n}")
            lo = getattr(self.bounds, lo_name)
            hi = getattr(self.bounds, hi_name)
            for side, bound in (("lower", lo), ("upper", hi)):
                if not np.isfinite(bound):
                    violations.append(f"{name}[-1] = {bound:g} violates "
                                      f"{side} bound must be finite")
            if lo < 0 or (strict and lo == 0):
                sign = "positive" if strict else "nonnegative"
                violations.append(f"{name}[-1] = {lo:g} violates "
                                  f"lower bound must be {sign}")
                continue
            for condition, bad in (("finiteness", ~np.isfinite(values)),
                                   (f"lower bound {lo:g}", values < lo),
                                   (f"upper bound {hi:g}", values > hi)):
                nodes = np.flatnonzero(bad)
                if nodes.size:
                    violations.append(
                        f"{name}[{nodes[0]}] = {values[nodes[0]]:g} "
                        f"violates {condition}"
                        + (f" ({nodes.size} nodes)" if nodes.size > 1
                           else ""))
        if violations:
            raise ValidationError("inadmissible coefficients:\n"
                                  + "\n".join(violations))

    @staticmethod
    def constant(grid, rho_A=1.0, mu=0.0, T_r=0.0, r=1.0, kappa=0.01,
                 bounds=None):
        """Constant fields on the grid.  Default bounds are tight."""
        n = grid.n_nodes
        if bounds is None:
            bounds = CoefficientBounds(rho_A, rho_A, mu, mu, T_r, T_r,
                                       r, r, kappa, kappa)
        return CoefficientSet(
            np.full(n, float(rho_A)), np.full(n, float(mu)),
            np.full(n, float(T_r)), np.full(n, float(r)),
            np.full(n, float(kappa)), bounds)


# relative slack granted to a discretely evaluated bound (quadrature error)
DEFAULT_SLACK = 0.05


@dataclass(frozen=True)
class CheckRow:
    """One numerically checked inequality lhs <= rhs of a scenario."""

    check: str
    scenario: str
    lhs: float
    rhs: float
    ok: bool

    @staticmethod
    def bound(check, scenario, lhs, rhs, slack=0.0, floor=0.0):
        """Row that passes when lhs <= rhs * (1 + slack) + floor."""
        return CheckRow(check, scenario, lhs, rhs,
                        lhs <= rhs * (1.0 + slack) + floor)


@dataclass(frozen=True)
class LoadField:
    """F(x, t) sampled on the (node, time-instant) grid, in N/m."""

    values: np.ndarray
    grid: SpaceTimeGrid

    def __post_init__(self):
        expected = (self.grid.n_nodes, self.grid.n_times)
        if self.values.shape != expected:
            raise DimensionError(
                f"load shape {self.values.shape}, grid expects {expected}")

    @staticmethod
    def zero(grid):
        return LoadField(np.zeros((grid.n_nodes, grid.n_times)), grid)

    def __sub__(self, other):
        return LoadField(self.values - other.values, self.grid)


def l2_norm_spacetime(load):
    """Trapezoidal approximation of the L2(Omega_T) norm of a load."""
    return float(np.sqrt(spacetime_inner(load.values, load.values,
                                         load.grid)))


def radial_scale(sq_norm, C_F):
    """The factor of the radial projection onto the ball ||F||^2 <= C_F
    of a load of squared norm `sq_norm`: 1 inside the ball and at 0,
    else sqrt(C_F) / ||F||."""
    norm = float(np.sqrt(sq_norm))
    if norm ** 2 <= C_F or norm == 0.0:
        return 1.0
    return np.sqrt(C_F) / norm


@dataclass(frozen=True)
class MeasurementSeries:
    """End-slope series theta_0(t), theta_l(t) in rad.

    `noise_delta` records the realized absolute perturbation norm when
    noise was injected (for Morozov stopping).
    """

    theta0: np.ndarray
    thetaL: np.ndarray
    noise_delta: float = None

    def __post_init__(self):
        if len(self.theta0) != len(self.thetaL):
            raise DimensionError("theta series lengths differ")

    @property
    def n_times(self):
        return len(self.theta0)


def series_l2_norm(values, dt):
    """Trapezoidal L2(0, T) norm of a time series."""
    return float(np.sqrt(time_inner(values, values, dt)))
