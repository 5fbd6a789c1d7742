import numpy as np
import pytest

from beamload import measurements
from beamload.errors import ConfigError
from beamload.measurements import (ModalLoad, MovingGaussian, NoiseSpec,
                                   _pick_lambda, add_noise, generate_scenario,
                                   manufactured_case, smooth_to_h1)
from beamload.model import (CoefficientSet, MeasurementSeries, SpaceTimeGrid,
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


def test_smoothing_interpolates_clean_data(small_grid):
    series = clean_series(small_grid)
    # no recorded noise level: the spline interpolates
    smooth = smooth_to_h1(series, small_grid.times)
    assert smooth.tag == "h1"
    assert np.allclose(smooth.theta0, series.theta0, atol=1e-10)


def test_smoothed_derivative_of_noisy_parabola():
    # theta = pi t^2 has derivative 2 pi t; the spline fit should recover
    # it within a percent away from the interval ends
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=4, n_steps=512)
    series = clean_series(g)
    noisy = add_noise(series, NoiseSpec(delta_rel=0.01, seed=3), g.dt)
    smooth = smooth_to_h1(noisy, g.times)
    t = g.times
    interior = (t > 0.2) & (t < 0.8)
    exact = 2 * np.pi * t
    rel = np.abs(smooth.dtheta0 - exact)[interior] / exact[interior]
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


def test_picked_lambda_clamps_to_bracket_ends():
    g, noisy = noisy_parabola(0.05, 0, n_steps=128)
    # no weight fits the data that closely, none smooths that much
    assert _pick_lambda(g.times, noisy.theta0, 1e-30) == 1e-14
    assert _pick_lambda(g.times, noisy.theta0, 1e30) == 1e6


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
    assert fam.bounds(small_grid)[2][0] > 0


def test_modal_load_round_trip(small_grid):
    fam = ModalLoad((1.0, -0.5, 0.25))
    again = ModalLoad.from_parameters(fam.parameters)
    assert again == fam
    field = fam.field(small_grid)
    parts = fam.jacobian(small_grid)
    combo = sum(c * p.values for c, p in zip(fam.parameters, parts))
    assert np.allclose(field.values, combo)


def test_generate_scenario_kinds(small_grid, small_coeffs):
    load, outputs = generate_scenario(
        "moving_gaussian", {"amplitude": 1.0, "speed": 1.0, "sigma": 0.15},
        small_grid, small_coeffs)
    assert l2_norm_spacetime(load) > 0
    assert outputs.n_times == small_grid.n_times
    load2, _ = generate_scenario("modal", {"coefficients": [1.0, 0.3]},
                                 small_grid, small_coeffs)
    assert l2_norm_spacetime(load2) > 0
    with pytest.raises(ConfigError):
        generate_scenario("unknown", {}, small_grid, small_coeffs)
