"""Synthetic measurement generation, noise injection and H1 smoothing.

The adjoint problem needs differentiable moment data, so raw (noisy)
series are fitted with a natural cubic smoothing spline before inversion.
"""

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import ConfigError, DivergenceError
from .model import LoadField, MeasurementSeries, series_l2_norm
from .objective import apply_io_operators

SIGMA_MIN_ELEMENTS = 0.01
# how far, in units of max |t|, a spacing may differ from the first for
# `_pick_lambda`: a SpaceTimeGrid's times differ by under 1 eps (n_steps
# 4 to 3e6, final times 1e-200 to 1e200)
SPACING_TOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean Gaussian perturbation, scaled to a relative L2 level."""

    delta_rel: float
    seed: int = 0

    def __post_init__(self):
        if not self.delta_rel >= 0:
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
    return MeasurementSeries(theta0=noisy[0], thetaL=noisy[1],
                             noise_delta=realized)


def smooth_to_h1(series, times):
    """Natural cubic smoothing-spline fit per channel.

    Each channel's curvature penalty weight is picked by `_pick_lambda`
    from the recorded noise level, on evenly spaced times only; without
    one the spline interpolates, at any spacing.
    """
    target = None
    if series.noise_delta is not None:
        # per-channel share of the recorded absolute noise
        target = series.noise_delta / np.sqrt(2.0)
    smoothed = []
    for values in (series.theta0, series.thetaL):
        lam = _pick_lambda(times, values, target)
        smoothed.append(make_smoothing_spline(times, values, lam))
    return MeasurementSeries(theta0=smoothed[0], thetaL=smoothed[1],
                             noise_delta=series.noise_delta)


def _pick_lambda(times, values, target):
    """Weight whose smoothing residual equals the noise level (Morozov on
    the smoothing misfit): one root-find on log-lambda inside
    [1e-14, 1e6], clamped to whichever end the residual cannot reach.
    The residual weighs the times evenly, so with a target they must be
    evenly spaced: ValueError otherwise."""
    if target is None or target == 0.0:
        return 0.0
    dt = times[1] - times[0]
    if np.abs(np.diff(times) - dt).max() > SPACING_TOL * np.abs(times).max():
        raise ValueError("the smoothing weight is picked on evenly spaced "
                         "times only")
    lo, hi = np.log(1e-14), np.log(1e6)

    def excess(log_lam):
        fit = make_smoothing_spline(times, values, np.exp(log_lam))
        return series_l2_norm(fit - values, dt) - target

    at_lo = excess(lo)
    if at_lo > 0:
        return 1e-14
    at_hi = excess(hi)
    if at_hi < 0:
        return 1e6
    return float(np.exp(_root(excess, lo, hi, at_lo, at_hi)))


# the stop of scipy.optimize.brentq at its defaults
ROOT_XTOL = 2e-12
ROOT_RTOL = 4 * np.finfo(float).eps
ROOT_MAXITER = 100


def _root(f, a, b, fa, fb):
    """A root of f in [a, b], given its end values fa and fb, by
    Chandrupatla's method (Chandrupatla 1997): inverse quadratic
    interpolation through the last three points where it passes the
    method's test, else bisection, until the bracket is narrower than
    ROOT_XTOL + ROOT_RTOL |x|; then its end of smaller |f|.  ValueError on
    ends of one sign or a NaN value, RuntimeError after ROOT_MAXITER steps."""
    # signs multiplied, not values, whose product can underflow to zero
    if not np.sign(fa) * np.sign(fb) <= 0:
        raise ValueError("f(a) and f(b) must be numbers of opposite signs")
    if fa == 0 or fb == 0:
        return a if fa == 0 else b
    t = 0.5
    for _ in range(ROOT_MAXITER):
        x = a + t * (b - a)
        fx = float(f(x))
        if np.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        # a is the newest point, (a, b) the bracket, c the point dropped
        if (fx < 0) != (fa < 0):
            a, fa, b, fb = b, fb, a, fa
        a, fa, c, fc = x, fx, a, fa
        x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        tol = ROOT_XTOL + ROOT_RTOL * abs(x)
        if fx == 0 or abs(b - a) < tol:
            return x
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        t = 0.5
        if phi * phi < xi and (1 - phi) ** 2 < 1 - xi:
            # inverse quadratic interpolation through a, b and c
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        # no step closer than tol / 2 to either end
        tl = tol / (2 * abs(b - a))
        t = min(max(t, tl), 1 - tl)
    raise RuntimeError(f"no convergence in {ROOT_MAXITER} steps, at {x}")


def make_smoothing_spline(times, values, lam):
    """Knot values f of the natural cubic spline minimising
    sum (y_i - f_i)^2 + lam * int f''^2, for any knot spacing.

    Reinsch form (Green & Silverman 1994, ch. 2): Q is the n x (n-2)
    second-difference matrix (1/h_i, -1/h_i - 1/h_{i+1}, 1/h_{i+1}) and R
    the tridiagonal ((h_i + h_{i+1})/3, h_{i+1}/6); one pentadiagonal SPD
    solve (R + lam Q^T Q) gamma = Q^T y gives f = y - lam Q gamma.  At
    lam = 0 the spline interpolates.
    """
    y = np.asarray(values, dtype=float)
    if lam == 0.0:
        return y.copy()
    h = np.diff(times)
    # row k of Q^T holds (a, b, c) in columns k, k+1, k+2
    a, c = 1.0 / h[:-1], 1.0 / h[1:]
    b = -a - c
    band = np.zeros((3, len(b)))   # LAPACK upper band, diagonal last
    band[2] = (h[:-1] + h[1:]) / 3.0 + lam * (a * a + b * b + c * c)
    band[1, 1:] = h[1:-1] / 6.0 + lam * (b[:-1] * a[1:] + c[:-1] * b[1:])
    band[0, 2:] = lam * c[:-2] * a[2:]
    # dpbtrf then dpbtrs, which is all that LAPACK's dpbsv does
    gamma = np.asarray_chkfinite(a * y[:-2] + b * y[1:-1] + c * y[2:])
    _lapack.bound_solve(_lapack.cholesky_banded(band), gamma)()
    q_gamma = np.zeros_like(y)
    q_gamma[:-2] += a * gamma
    q_gamma[1:-1] += b * gamma
    q_gamma[2:] += c * gamma
    return y - lam * q_gamma


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
        """(lower, upper) box of (A, v, sigma): sigma stays above a
        hundredth of an element, so the field and its Jacobian stay
        finite."""
        return (np.array([-np.inf, -np.inf, SIGMA_MIN_ELEMENTS * grid.h]),
                np.inf)

    def field(self, grid):
        x = grid.nodes[:, None]
        t = grid.times[None, :]
        z = (x - self.speed * t) / self.sigma
        return LoadField(self.amplitude * np.exp(-0.5 * z * z), grid)

    def jacobian(self, grid):
        """Analytic partial derivatives of the field wrt (A, v, sigma),
        from z = (x - v t) / sigma as in `field`, so no power of sigma
        is formed."""
        t = grid.times[None, :]
        z = (grid.nodes[:, None] - self.speed * t) / self.sigma
        g = np.exp(-0.5 * z * z)
        scaled = self.amplitude * g * z / self.sigma
        return [LoadField(g, grid), LoadField(scaled * t, grid),
                LoadField(scaled * z, grid)]

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
        """(lower, upper) box: every coefficient vector is admissible."""
        return -np.inf, np.inf

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
    l = grid.length
    x = grid.nodes[:, None]
    t = grid.times[None, :]
    rho, mu, Tr, r, kap = (np.mean(c) for c in (
        coeffs.rho_A, coeffs.mu, coeffs.T_r, coeffs.r, coeffs.kappa))
    # numpy floats under errstate: a forcing out of floating range is
    # inf or NaN and refused below, not an OverflowError
    with np.errstate(all="ignore"):
        k = np.pi / np.float64(l)
        shape = np.sin(k * x)
        forcing = (2.0 * rho + 2.0 * mu * t + 2.0 * kap * k ** 4 * t
                   + (Tr * k ** 2 + r * k ** 4) * t ** 2)
    if not np.all(np.isfinite(forcing)):
        raise DivergenceError(f"manufactured load out of floating range "
                              f"at grid.length = {l:g}")
    load = LoadField(forcing * shape, grid)
    exact_u = t ** 2 * shape
    tt = grid.times
    exact = MeasurementSeries(theta0=k * tt ** 2,
                              thetaL=k * np.cos(k * l) * tt ** 2)
    return load, exact_u, exact


def load_family(kind, params):
    """The load family `kind` with its parameters taken from `params`.

    kind is "moving_gaussian" (params: amplitude, speed, sigma) or
    "modal" (params: mode coefficients).  A moving Gaussian whose centre
    exits the domain is simply truncated at the boundary (the profile
    decays there anyway).
    """
    if kind == "moving_gaussian":
        return MovingGaussian(params["amplitude"], params["speed"],
                              params["sigma"])
    if kind == "modal":
        return ModalLoad(tuple(params["coefficients"]))
    raise ConfigError(f"unknown load family: {kind}")


def generate_scenario(truth, coeffs, grid, noise=None):
    """Twin data of the load field `truth`: (clean, noisy, smoothed).

    The clean end slopes come from `apply_io_operators`; with a nonzero
    `noise` level they are perturbed by `add_noise` and then smoothed by
    `smooth_to_h1`, otherwise noisy and smoothed are None.
    """
    clean = MeasurementSeries(*apply_io_operators(truth, coeffs, grid))
    if noise is None or noise.delta_rel == 0:
        return clean, None, None
    noisy = add_noise(clean, noise, grid.dt)
    return clean, noisy, smooth_to_h1(noisy, grid.times)
