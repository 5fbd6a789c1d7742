"""Synthetic measurement generation, noise injection and H1 smoothing.

The adjoint problem needs differentiable moment data, so raw (noisy)
series are fitted with a cubic smoothing spline before inversion.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_smoothing_spline
from scipy.optimize import brentq

from .errors import ConfigError
from .forward import solve_forward
from .model import LoadField, MeasurementSeries, series_l2_norm

SIGMA_MIN_ELEMENTS = 0.01


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean Gaussian perturbation, scaled to a relative L2 level."""

    delta_rel: float
    seed: int = 0

    def __post_init__(self):
        if self.delta_rel < 0:
            raise ValueError("delta_rel must be nonnegative")


def add_noise(series, spec, dt):
    """Perturb each channel so its realized L2 perturbation norm is
    exactly delta_rel * ||channel||.

    The realized absolute perturbation (both channels combined) is stored
    on the returned series for discrepancy-based stopping.
    """
    if spec.delta_rel == 0.0:
        return series
    rng = np.random.default_rng(spec.seed)
    deltas = []
    noisy = []
    for clean in (series.theta0, series.thetaL):
        e = rng.standard_normal(len(clean))
        e_norm = series_l2_norm(e, dt)
        target = spec.delta_rel * series_l2_norm(clean, dt)
        if e_norm > 0:
            e *= target / e_norm
        deltas.append(target)
        noisy.append(clean + e)
    realized = float(np.hypot(*deltas))
    return MeasurementSeries(theta0=noisy[0], thetaL=noisy[1], tag="raw",
                             noise_delta=realized)


def smooth_to_h1(series, times):
    """Cubic smoothing-spline fit per channel, tagged H1-smoothed.

    Each channel's curvature penalty weight is picked by `_pick_lambda`
    from the recorded noise level; without one the spline interpolates.
    Values and the analytic first derivative come from the one fit.
    """
    target = None
    if series.noise_delta is not None:
        # per-channel share of the recorded absolute noise
        target = series.noise_delta / np.sqrt(2.0)
    smoothed, derivs = [], []
    for values in (series.theta0, series.thetaL):
        lam = _pick_lambda(times, values, target)
        spline = make_smoothing_spline(times, values, lam=lam)
        smoothed.append(spline(times))
        derivs.append(spline.derivative()(times))
    return MeasurementSeries(theta0=smoothed[0], thetaL=smoothed[1],
                             tag="h1", dtheta0=derivs[0], dthetaL=derivs[1],
                             noise_delta=series.noise_delta)


def _pick_lambda(times, values, target):
    """Weight whose smoothing residual equals the noise level (Morozov on
    the smoothing misfit): one Brent root-find on log-lambda inside
    [1e-14, 1e6], clamped to whichever end the residual cannot reach."""
    if target is None or target == 0.0:
        return 0.0
    dt = times[1] - times[0]
    lo, hi = 1e-14, 1e6

    # cached, so that Brent's first two calls reuse the end checks' fits
    @functools.cache
    def excess(log_lam):
        spline = make_smoothing_spline(times, values, lam=np.exp(log_lam))
        return series_l2_norm(spline(times) - values, dt) - target

    if excess(np.log(lo)) > 0:
        return lo
    if excess(np.log(hi)) < 0:
        return hi
    return float(np.exp(brentq(excess, np.log(lo), np.log(hi))))


@dataclass(frozen=True)
class MovingGaussian:
    """Gaussian load profile of amplitude A travelling at speed v.

    F(x, t) = A * exp(-(x - v t)^2 / (2 sigma^2)).
    """

    amplitude: float
    speed: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def bounds(self, grid):
        """L-BFGS-B box of (A, v, sigma): sigma stays above a hundredth of
        an element, so the field and its Jacobian stay finite."""
        return [(None, None), (None, None), (SIGMA_MIN_ELEMENTS * grid.h,
                                             None)]

    def field(self, grid):
        x = grid.nodes[:, None]
        t = grid.times[None, :]
        z = (x - self.speed * t) / self.sigma
        return LoadField(self.amplitude * np.exp(-0.5 * z * z), grid)

    def jacobian(self, grid):
        """Analytic partial derivatives of the field wrt (A, v, sigma)."""
        x = grid.nodes[:, None]
        t = grid.times[None, :]
        d = x - self.speed * t
        g = np.exp(-0.5 * (d / self.sigma) ** 2)
        dA = g
        dv = self.amplitude * g * d * t / self.sigma ** 2
        dsig = self.amplitude * g * d ** 2 / self.sigma ** 3
        return [LoadField(dA, grid), LoadField(dv, grid),
                LoadField(dsig, grid)]

    @property
    def parameters(self):
        return np.array([self.amplitude, self.speed, self.sigma])

    @staticmethod
    def from_parameters(params):
        return MovingGaussian(*map(float, params))


@dataclass(frozen=True)
class ModalLoad:
    """Separable low-mode load sum_k c_k sin(k pi x / l) g_k(t) with
    g_k(t) = sin(k pi t / T)."""

    coefficients: tuple

    def bounds(self, grid):
        """No box: every coefficient vector is admissible."""
        return None

    def field(self, grid):
        values = np.zeros((grid.n_nodes, grid.n_times))
        for k, c in enumerate(self.coefficients, start=1):
            values += c * self._mode(grid, k)
        return LoadField(values, grid)

    def jacobian(self, grid):
        return [LoadField(self._mode(grid, k), grid)
                for k in range(1, len(self.coefficients) + 1)]

    @staticmethod
    def _mode(grid, k):
        x = grid.nodes[:, None]
        t = grid.times[None, :]
        return (np.sin(k * np.pi * x / grid.length)
                * np.sin(k * np.pi * t / grid.final_time))

    @property
    def parameters(self):
        return np.array(self.coefficients, dtype=float)

    @staticmethod
    def from_parameters(params):
        return ModalLoad(tuple(float(c) for c in params))


def manufactured_case(grid, coeffs):
    """Constant-coefficient manufactured solution u = t^2 sin(pi x / l).

    Substituting u into the beam equation gives the exact load in closed
    form, so the triple (load, exact deflection, exact end slopes) serves
    as a solver oracle.  Coefficient fields must be constant; the nodal
    means are used.
    """
    l, T = grid.length, grid.final_time
    k = np.pi / l
    x = grid.nodes[:, None]
    t = grid.times[None, :]
    rho = float(np.mean(coeffs.rho_A))
    mu = float(np.mean(coeffs.mu))
    Tr = float(np.mean(coeffs.T_r))
    r = float(np.mean(coeffs.r))
    kap = float(np.mean(coeffs.kappa))
    shape = np.sin(k * x)
    forcing = (2.0 * rho + 2.0 * mu * t + 2.0 * kap * k ** 4 * t
               + (Tr * k ** 2 + r * k ** 4) * t ** 2)
    load = LoadField(forcing * shape, grid)
    exact_u = t ** 2 * shape
    tt = grid.times
    exact = MeasurementSeries(theta0=k * tt ** 2,
                              thetaL=k * np.cos(k * l) * tt ** 2)
    return load, exact_u, exact


def scenario_load(kind, params, grid):
    """Truth load of the given family on the grid.

    kind is "moving_gaussian" (params: amplitude, speed, sigma) or
    "modal" (params: mode coefficients).  A moving Gaussian whose centre
    exits the domain is simply truncated at the boundary (the profile
    decays there anyway).
    """
    if kind == "moving_gaussian":
        family = MovingGaussian(params["amplitude"], params["speed"],
                                params["sigma"])
    elif kind == "modal":
        family = ModalLoad(tuple(params["coefficients"]))
    else:
        raise ConfigError(f"unknown scenario kind: {kind}")
    return family.field(grid)


def generate_scenario(kind, params, grid, coeffs):
    """Truth load of `scenario_load` and its clean measurements.

    Returns (F_true, measurements).
    """
    load = scenario_load(kind, params, grid)
    traj = solve_forward(coeffs, load, grid)
    return load, traj.outputs
