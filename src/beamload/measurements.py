"""Synthetic measurement generation, noise injection and H1 smoothing.

The adjoint problem needs differentiable moment data, so raw (noisy)
series are fitted with a natural cubic smoothing spline before inversion.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import solveh_banded
from .errors import ConfigError, DivergenceError
from .model import LoadField, MeasurementSeries, series_l2_norm
from .objective import apply_io_operators

SIGMA_MIN_ELEMENTS = 0.01


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
    from the recorded noise level; without one the spline interpolates.
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
    the smoothing misfit): one Brent root-find on log-lambda inside
    [1e-14, 1e6], clamped to whichever end the residual cannot reach."""
    if target is None or target == 0.0:
        return 0.0
    dt = times[1] - times[0]
    lo, hi = 1e-14, 1e6

    # cached, so that Brent's first two calls reuse the end checks' fits
    @functools.cache
    def excess(log_lam):
        fit = make_smoothing_spline(times, values, np.exp(log_lam))
        return series_l2_norm(fit - values, dt) - target

    if excess(np.log(lo)) > 0:
        return lo
    if excess(np.log(hi)) < 0:
        return hi
    return float(np.exp(_brent(excess, np.log(lo), np.log(hi))))


# the defaults of scipy.optimize.brentq
BRENT_XTOL = 2e-12
BRENT_RTOL = 4 * np.finfo(float).eps
BRENT_MAXITER = 100


def _brent(f, a, b):
    """A root of f in [a, b], whose end values differ in sign, by Brent's
    method (Brent 1973, ch. 4) taken step for step as
    `scipy.optimize.brentq` takes it at its default tolerances: the same
    bracket, steps, acceptance and stop, so the same float and the same
    number of calls of f.  Raises ValueError on ends of one sign or a
    NaN value, RuntimeError after BRENT_MAXITER steps."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # signs compared, not a product that can underflow to zero
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        # (xblk, fblk) is the end of the bracket opposite xcur
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf     # refused below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate: the secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate: inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # brentq's C division gives an infinite or NaN step here,
                # which the acceptance test refuses, as it refuses inf
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            # a good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {BRENT_MAXITER} "
                       f"iterations, value is {xcur}")


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
    gamma = solveh_banded(band, a * y[:-2] + b * y[1:-1] + c * y[2:])
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
