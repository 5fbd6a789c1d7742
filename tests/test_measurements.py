import numpy as np
import pytest

from beamload import measurements
from beamload.errors import ConfigError
from beamload.forward import solve_forward
from beamload.measurements import (ModalLoad, MovingGaussian, NoiseSpec,
                                   _pick_lambda, add_noise, generate_scenario,
                                   load_family, make_smoothing_spline,
                                   manufactured_case, smooth_to_h1)
from beamload.model import (CoefficientBounds, CoefficientSet,
                            MeasurementSeries, SpaceTimeGrid,
                            l2_norm_spacetime, series_l2_norm)


def clean_series(grid):
    t = grid.times
    return MeasurementSeries(theta0=np.pi * t ** 2,
                             thetaL=-np.pi * t ** 2)


def test_noise_level_is_exact_and_deterministic(small_grid):
    series = clean_series(small_grid)
    spec = NoiseSpec(delta_rel=0.02, seed=42)
    dt = small_grid.dt
    noisy1 = add_noise(series, spec, dt)
    noisy2 = add_noise(series, spec, dt)
    assert np.array_equal(noisy1.theta0, noisy2.theta0)
    assert np.array_equal(noisy1.thetaL, noisy2.thetaL)
    for clean, pert in ((series.theta0, noisy1.theta0),
                        (series.thetaL, noisy1.thetaL)):
        realized = series_l2_norm(pert - clean, dt)
        assert realized == pytest.approx(0.02 * series_l2_norm(clean, dt),
                                         rel=1e-12)
    expected = np.hypot(0.02 * series_l2_norm(series.theta0, dt),
                        0.02 * series_l2_norm(series.thetaL, dt))
    assert noisy1.noise_delta == pytest.approx(expected, rel=1e-12)
    different = add_noise(series, NoiseSpec(delta_rel=0.02, seed=43), dt)
    assert not np.array_equal(noisy1.theta0, different.theta0)


def test_zero_noise_is_identity(small_grid):
    series = clean_series(small_grid)
    assert add_noise(series, NoiseSpec(delta_rel=0.0), small_grid.dt) is series


@pytest.mark.parametrize("bad", [-0.01, float("nan")])
def test_noise_level_must_be_nonnegative(bad):
    with pytest.raises(ValueError):
        NoiseSpec(delta_rel=bad)


def test_smoothing_interpolates_clean_data(small_grid):
    series = clean_series(small_grid)
    # no recorded noise level: the spline interpolates
    smooth = smooth_to_h1(series, small_grid.times)
    assert np.allclose(smooth.theta0, series.theta0, atol=1e-10)


def test_smoothed_derivative_of_noisy_parabola():
    # theta = pi t^2 has derivative 2 pi t; the spline fit's values should
    # carry it (central differences) within 2% away from the interval ends
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=4, n_steps=512)
    series = clean_series(g)
    noisy = add_noise(series, NoiseSpec(delta_rel=0.01, seed=3), g.dt)
    smooth = smooth_to_h1(noisy, g.times)
    t = g.times
    interior = (t > 0.2) & (t < 0.8)
    exact = 2 * np.pi * t
    slope = np.gradient(smooth.theta0, g.dt)
    rel = np.abs(slope - exact)[interior] / exact[interior]
    assert np.max(rel) < 0.02
    # smoothing residual sits near the per-channel noise share (Morozov)
    res = series_l2_norm(smooth.theta0 - noisy.theta0, g.dt)
    target = noisy.noise_delta / np.sqrt(2.0)
    assert 0.3 * target < res < 2.0 * target


def test_smoothing_preserves_symmetry():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=4, n_steps=128)
    t = g.times
    series = MeasurementSeries(theta0=np.sin(np.pi * t),
                               thetaL=-np.sin(np.pi * t), noise_delta=0.01)
    smooth = smooth_to_h1(series, t)
    assert np.allclose(smooth.theta0, -smooth.thetaL, atol=1e-12)


def noisy_parabola(delta_rel, seed, n_steps=512):
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=4,
                      n_steps=n_steps)
    return g, add_noise(clean_series(g), NoiseSpec(delta_rel, seed), g.dt)


@pytest.mark.parametrize("delta_rel", [0.01, 0.05, 0.30])
def test_picked_lambda_meets_morozov(monkeypatch, delta_rel):
    # each channel's smoothing residual equals its noise share, within a
    # budget of spline fits per call
    fits = []
    spline = measurements.make_smoothing_spline

    def counted(*args, **kwargs):
        fits.append(1)
        return spline(*args, **kwargs)

    monkeypatch.setattr(measurements, "make_smoothing_spline", counted)
    for seed in range(3):
        g, noisy = noisy_parabola(delta_rel, seed)
        fits.clear()
        smooth = smooth_to_h1(noisy, g.times)
        assert len(fits) <= 64
        target = noisy.noise_delta / np.sqrt(2.0)
        for fit, raw in ((smooth.theta0, noisy.theta0),
                         (smooth.thetaL, noisy.thetaL)):
            res = series_l2_norm(fit - raw, g.dt)
            assert abs(res - target) <= 2e-9 * target


def test_smoothing_matches_the_spline_at_brentqs_weight():
    # the replaced root-find moves no smoothed channel by more than 1e-9
    # relative L2 from the spline at the weight scipy's brentq finds on
    # the same residual
    from scipy.optimize import brentq
    for delta_rel in (0.01, 0.05, 0.30):
        for seed in range(3):
            g, noisy = noisy_parabola(delta_rel, seed)
            smooth = smooth_to_h1(noisy, g.times)
            target = noisy.noise_delta / np.sqrt(2.0)
            for fit, raw in ((smooth.theta0, noisy.theta0),
                             (smooth.thetaL, noisy.thetaL)):
                def excess(log_lam):
                    spline = make_smoothing_spline(g.times, raw,
                                                   np.exp(log_lam))
                    return series_l2_norm(spline - raw, g.dt) - target

                lam = np.exp(brentq(excess, np.log(1e-14), np.log(1e6)))
                reference = make_smoothing_spline(g.times, raw, lam)
                assert (np.linalg.norm(fit - reference)
                        <= 1e-9 * np.linalg.norm(reference))


def step(x):
    return -1.0 if x < 0.5 else 1.0


WALLIS = 2.0945514815423265


@pytest.mark.parametrize("f,a,b,root", [
    (lambda x: x * x - 2.0, 0.0, 2.0, np.sqrt(2.0)),
    (lambda x: np.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, WALLIS),
    (lambda x: np.exp(x) - 10.0, -5.0, 10.0, np.log(10.0)),
    (lambda x: np.tanh(20.0 * (x - 0.3)), -10.0, 10.0, 0.3),
    (step, 0.0, 1.0, 0.5),
    # end values whose product underflows: the sign test reads signs
    (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0, 0.3),
    (lambda x: 1e-160 * (x ** 3 - 2.0 * x - 5.0), 2.0, 3.0, WALLIS),
    # a root at a bracket end
    (lambda x: x - 1.0, 1.0, 3.0, 1.0),
    (lambda x: x - 1.0, -1.0, 1.0, 1.0),
    # ends of one sign, or a NaN value: ValueError
    (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),
    (lambda x: 1e-200, 0.0, 1.0, ValueError),
    (lambda x: x - 0.3 if x < 0.7 else float("nan"), 0.0, 1.0, ValueError),
    (lambda x: float("nan") if 0.4 < x < 0.9 else x - 0.3, 0.0, 1.0,
     ValueError),
    # brentq raises RuntimeError here; the clamped steps reach the root
    (lambda x: (x - 1.0) ** 3, 0.0, 3.0, 1.0),
    # no convergence in 100 steps: RuntimeError
    (step, -1e300, 1e300, RuntimeError),
], ids=["sqrt2", "dottie", "wallis", "exp", "tanh", "step", "tiny_line",
        "tiny_wallis", "root_at_a", "root_at_b", "one_sign",
        "tiny_one_sign", "nan_end", "nan_inside", "triple_root",
        "wide_step"])
def test_root_lands_within_its_stop_of_closed_form_roots(f, a, b, root):
    if isinstance(root, type):
        with pytest.raises(root):
            measurements._root(f, a, b, f(a), f(b))
        return
    x = measurements._root(f, a, b, f(a), f(b))
    tol = measurements.ROOT_XTOL + 4 * measurements.ROOT_RTOL * abs(x)
    assert abs(x - root) <= tol


def test_picked_lambda_clamps_to_bracket_ends():
    g, noisy = noisy_parabola(0.05, 0, n_steps=128)
    # no weight fits the data that closely, none smooths that much
    assert _pick_lambda(g.times, noisy.theta0, 1e-30) == 1e-14
    assert _pick_lambda(g.times, noisy.theta0, 1e30) == 1e6


def test_picked_lambda_needs_evenly_spaced_times():
    # the Morozov residual weighs the times evenly, so a noise level on
    # uneven times is refused, however small the unevenness
    g, noisy = noisy_parabola(0.05, 0, n_steps=128)
    t = g.times.copy()
    t[1:-1] += 1e-6 * g.dt * np.sin(np.arange(1, g.n_steps))
    with pytest.raises(ValueError, match="evenly spaced"):
        smooth_to_h1(noisy, t)
    # without a noise level the spline interpolates at any spacing
    raw = MeasurementSeries(noisy.theta0, noisy.thetaL)
    assert np.array_equal(smooth_to_h1(raw, t).theta0, noisy.theta0)
    # every grid's times are even to the tolerance, and get a weight
    for n_steps in (4, 97, 513, 4099, 1_000_003):
        for final_time in (1e-200, 0.3, 1.0, 7.77, 1e200):
            times = SpaceTimeGrid(1.0, final_time, 4, n_steps).times
            spread = np.abs(np.diff(times) - (times[1] - times[0])).max()
            assert spread <= measurements.SPACING_TOL * times[-1]
    g = SpaceTimeGrid(length=1.0, final_time=0.3, n_elements=4,
                      n_steps=777)
    noisy = add_noise(clean_series(g), NoiseSpec(0.05, 1), g.dt)
    assert 1e-14 < _pick_lambda(g.times, noisy.theta0, 1e-3) < 1e6


def noisy_knots(spacing, n=513, seed=7):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    if spacing == "non_uniform":
        # each interior knot jittered by up to 40 % of a uniform gap
        t[1:-1] += 0.4 * t[1] * rng.uniform(-1.0, 1.0, n - 2)
    return t, np.pi * t ** 2 + 0.05 * rng.standard_normal(n)


@pytest.mark.parametrize("spacing", ["uniform", "non_uniform"])
@pytest.mark.parametrize("lam", [1e-14, 1e-10, 1e-6, 1e-3, 1e-2])
def test_reinsch_fit_matches_scipy_smoothing_spline(spacing, lam):
    # scipy's own error grows above lam = 1e-2, so the gate stops there
    from scipy.interpolate import make_smoothing_spline as scipy_spline
    t, y = noisy_knots(spacing)
    reference = scipy_spline(t, y, lam=lam)(t)
    fit = make_smoothing_spline(t, y, lam)
    assert (np.linalg.norm(fit - reference)
            <= 1e-9 * np.linalg.norm(reference))


def test_reinsch_fit_interpolates_at_zero_weight():
    t, y = noisy_knots("non_uniform")
    fit = make_smoothing_spline(t, y, 0.0)
    assert np.array_equal(fit, y) and fit is not y


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reinsch_fit_refuses_non_finite_values(bad):
    t, y = noisy_knots("non_uniform")
    y[40] = bad
    for lam in (1e-14, 1.0, 1e6):
        with pytest.raises(ValueError, match="infs or NaNs"):
            make_smoothing_spline(t, y, lam)
    # at zero weight the values come back unchecked, as a copy
    fit = make_smoothing_spline(t, y, 0.0)
    assert np.array_equal(fit, y, equal_nan=True) and fit is not y


@pytest.mark.parametrize("lam, tol", [(1e6, 1e-6), (1e8, 1e-8)])
def test_reinsch_fit_tends_to_least_squares_line(lam, tol):
    # infinite curvature weight leaves only the null space of int f''^2:
    # the straight line fitted to the data by least squares
    t, y = noisy_knots("uniform")
    line = np.polyval(np.polyfit(t, y, 1), t)
    fit = make_smoothing_spline(t, y, lam)
    assert np.linalg.norm(fit - line) <= tol * np.linalg.norm(line)


def test_manufactured_case_closed_form(small_grid, small_coeffs):
    load, exact_u, exact = manufactured_case(small_grid, small_coeffs)
    g = small_grid
    k = np.pi / g.length
    # deflection and slopes at the midpoint time
    j = g.n_steps // 2
    t = g.times[j]
    assert np.allclose(exact_u[:, j], t ** 2 * np.sin(k * g.nodes))
    assert exact.theta0[j] == pytest.approx(k * t ** 2)
    assert exact.thetaL[j] == pytest.approx(-k * t ** 2)
    # forcing at t = 0 reduces to the inertia term 2 rho sin(kx)
    assert np.allclose(load.values[:, 0], 2.0 * np.sin(k * g.nodes),
                       atol=1e-12)


@pytest.mark.parametrize("name", ["rho_A", "mu", "T_r", "r", "kappa"])
def test_manufactured_case_refuses_a_varying_field(small_grid, small_coeffs,
                                                   name):
    # the closed-form load is exact only for constant coefficients
    names = ("rho_A", "mu", "T_r", "r", "kappa")
    fields = {n: getattr(small_coeffs, n) for n in names}
    fields[name] = fields[name] * (1.0 + 0.5 * small_grid.nodes)
    bounds = CoefficientBounds(*[f(fields[n]) for n in names
                                 for f in (np.min, np.max)])
    with pytest.raises(ConfigError, match=f"; {name} varies from"):
        manufactured_case(small_grid, CoefficientSet(**fields, bounds=bounds))


def test_moving_gaussian_jacobian_matches_finite_differences(small_grid):
    fam = MovingGaussian(amplitude=1.5, speed=0.8, sigma=0.2)
    jac = fam.jacobian(small_grid)
    eps = 1e-6
    for i in range(3):
        params = fam.parameters.astype(float)
        params[i] += eps
        plus = MovingGaussian.from_parameters(params).field(small_grid)
        params[i] -= 2 * eps
        minus = MovingGaussian.from_parameters(params).field(small_grid)
        fd = (plus.values - minus.values) / (2 * eps)
        assert np.allclose(jac[i].values, fd, atol=1e-6)


def test_moving_gaussian_keeps_sigma_positive(small_grid):
    for sigma in (0.0, -0.1):
        with pytest.raises(ValueError):
            MovingGaussian(amplitude=1.0, speed=1.0, sigma=sigma)
    fam = MovingGaussian(amplitude=1.0, speed=1.0, sigma=0.2)
    lower, upper = fam.bounds(small_grid)
    assert lower[2] > 0 and np.all(np.isinf(lower[:2]))
    assert np.all(np.broadcast_to(upper, 3) == np.inf)


def test_modal_load_round_trip(small_grid):
    fam = ModalLoad((1.0, -0.5, 0.25))
    again = ModalLoad.from_parameters(fam.parameters)
    assert again == fam
    assert fam.bounds(small_grid) == (-np.inf, np.inf)
    field = fam.field(small_grid)
    parts = fam.jacobian(small_grid)
    combo = sum(c * p.values for c, p in zip(fam.parameters, parts))
    assert np.allclose(field.values, combo)


def test_modal_load_field_is_a_product_of_sines():
    """Mode k of `ModalLoad` is sin(k pi x / l) sin(k pi t / T), on a beam
    and a time span of other than unit length."""
    grid = SpaceTimeGrid(length=2.5, final_time=0.7, n_elements=8,
                         n_steps=20)
    x, t = grid.nodes[:, None], grid.times[None, :]
    expected = np.sin(2 * np.pi * x / 2.5) * np.sin(2 * np.pi * t / 0.7)
    field = ModalLoad((0.0, 1.0, 0.0)).field(grid)
    np.testing.assert_allclose(field.values, expected, rtol=0, atol=1e-15)


def test_generate_scenario_kinds(small_grid, small_coeffs):
    for kind, params in [
            ("moving_gaussian", {"amplitude": 1.0, "speed": 1.0,
                                 "sigma": 0.15}),
            ("modal", {"coefficients": [1.0, 0.3]})]:
        load = load_family(kind, params).field(small_grid)
        assert l2_norm_spacetime(load) > 0
        clean, _, _ = generate_scenario(load, small_coeffs, small_grid)
        assert clean.n_times == small_grid.n_times
    with pytest.raises(ConfigError, match="unknown load family"):
        load_family("unknown", {})


def test_generate_scenario_is_the_twin_pipeline(small_grid, small_coeffs):
    """Clean slopes are the forward solve's, bit for bit; the noisy and
    smoothed ones are `add_noise` then `smooth_to_h1` of them."""
    g = small_grid
    truth = MovingGaussian(2.0, 1.0, 0.15).field(g)
    spec = NoiseSpec(delta_rel=0.03, seed=7)
    clean, noisy, smooth = generate_scenario(truth, small_coeffs, g, spec)
    outputs = solve_forward(small_coeffs, truth, g).outputs
    expected_noisy = add_noise(outputs, spec, g.dt)
    expected_smooth = smooth_to_h1(expected_noisy, g.times)
    for got, want in [(clean, outputs), (noisy, expected_noisy),
                      (smooth, expected_smooth)]:
        assert got.theta0.tobytes() == want.theta0.tobytes()
        assert got.thetaL.tobytes() == want.thetaL.tobytes()
        assert got.noise_delta == want.noise_delta
    assert noisy.noise_delta > 0


@pytest.mark.parametrize("noise", [None, NoiseSpec(delta_rel=0.0, seed=3)],
                         ids=["none", "zero_level"])
def test_generate_scenario_without_noise_is_clean_only(small_grid,
                                                       small_coeffs, noise):
    truth = ModalLoad((1.0,)).field(small_grid)
    clean, noisy, smooth = generate_scenario(truth, small_coeffs, small_grid,
                                             noise)
    outputs = solve_forward(small_coeffs, truth, small_grid).outputs
    assert clean.theta0.tobytes() == outputs.theta0.tobytes()
    assert clean.thetaL.tobytes() == outputs.thetaL.tobytes()
    assert clean.noise_delta is None
    assert noisy is None and smooth is None
