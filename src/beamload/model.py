"""Physical model data: grids, coefficient fields, loads and measurements.

Coefficient fields are node-sampled and interpreted as piecewise linear
inside elements.  All space-time integrals use trapezoidal quadrature on
the grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


def trapezoid_weights(n_points, spacing):
    """Quadrature weights of the composite trapezoidal rule."""
    w = np.full(n_points, spacing)
    w[0] = w[-1] = 0.5 * spacing
    return w


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

    def refined(self, factor=2):
        """Grid with both mesh and time step refined by `factor`."""
        return SpaceTimeGrid(self.length, self.final_time,
                             self.n_elements * factor, self.n_steps * factor)


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


@dataclass(frozen=True)
class CoefficientSet:
    """Node-sampled coefficient fields with their admissibility bounds.

    Fields: mass per unit length rho_A, external (viscous) damping mu,
    axial tension T_r, flexural rigidity r and Kelvin-Voigt damping kappa.
    """

    rho_A: np.ndarray
    mu: np.ndarray
    T_r: np.ndarray
    r: np.ndarray
    kappa: np.ndarray
    bounds: CoefficientBounds

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


@dataclass(frozen=True)
class ValidationReport:
    """Result of an admissibility check; empty violations means valid."""

    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return "all coefficient bounds satisfied"
        return "\n".join("{}[{}] = {:g} violates {}".format(*v)
                         for v in self.violations)


def validate_coefficients(coeffs):
    """Check the admissibility conditions node-wise.

    Returns a ValidationReport listing every violated bound with the node
    index, every non-finite sample and every non-finite bound (node -1).
    Requires strictly positive lower bounds for rho_A, r, kappa; mu and
    T_r may vanish.
    """
    b = coeffs.bounds
    fields = {
        "rho_A": (coeffs.rho_A, b.rho0, b.rho1, True),
        "mu": (coeffs.mu, b.mu0, b.mu1, False),
        "T_r": (coeffs.T_r, b.Tr0, b.Tr1, False),
        "r": (coeffs.r, b.r0, b.r1, True),
        "kappa": (coeffs.kappa, b.kappa0, b.kappa1, True),
    }
    n = len(coeffs.rho_A)
    violations = []
    for name, (values, lo, hi, strict) in fields.items():
        if len(values) != n:
            raise DimensionError(f"{name} has {len(values)} samples, expected {n}")
        for side, bound in (("lower", lo), ("upper", hi)):
            if not np.isfinite(bound):
                violations.append((name, -1, bound,
                                   f"{side} bound must be finite"))
        if strict and lo <= 0:
            violations.append((name, -1, lo, "lower bound must be positive"))
            continue
        for i in np.flatnonzero(~np.isfinite(values)):
            violations.append((name, int(i), values[i], "finiteness"))
        for i in np.flatnonzero(values < lo):
            violations.append((name, int(i), values[i], f"lower bound {lo:g}"))
        for i in np.flatnonzero(values > hi):
            violations.append((name, int(i), values[i], f"upper bound {hi:g}"))
    return ValidationReport(tuple(violations))


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

    def as_tuple(self):
        return (self.check, self.scenario, self.lhs, self.rhs, self.ok)


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
    g = load.grid
    wx = trapezoid_weights(g.n_nodes, g.h)
    wt = trapezoid_weights(g.n_times, g.dt)
    sq = wx @ (load.values ** 2) @ wt
    return float(np.sqrt(sq))


def project_admissible(load, C_F):
    """Radial projection onto the ball ||F||^2 <= C_F."""
    if C_F <= 0:
        raise ValueError("C_F must be positive")
    norm = l2_norm_spacetime(load)
    if norm ** 2 <= C_F or norm == 0.0:
        return load
    return LoadField(load.values * (np.sqrt(C_F) / norm), load.grid)


@dataclass(frozen=True)
class MeasurementSeries:
    """End-slope series theta_0(t), theta_l(t) in rad.

    `tag` is "raw" or "h1"; in the smoothed state the first-derivative
    series are available.  `noise_delta` records the realized absolute
    perturbation norm when noise was injected (for Morozov stopping).
    """

    theta0: np.ndarray
    thetaL: np.ndarray
    tag: str = "raw"
    dtheta0: np.ndarray = None
    dthetaL: np.ndarray = None
    noise_delta: float = None

    def __post_init__(self):
        if len(self.theta0) != len(self.thetaL):
            raise DimensionError("theta series lengths differ")
        if self.tag == "h1":
            if self.dtheta0 is None or self.dthetaL is None:
                raise DimensionError("h1-smoothed series need derivatives")
            if not (np.all(np.isfinite(self.dtheta0))
                    and np.all(np.isfinite(self.dthetaL))):
                raise DimensionError("derivative series must be finite")

    @property
    def n_times(self):
        return len(self.theta0)


def series_l2_norm(values, dt):
    """Trapezoidal L2(0, T) norm of a time series."""
    w = trapezoid_weights(len(values), dt)
    return float(np.sqrt(w @ (np.asarray(values) ** 2)))
