import numpy as np
import pytest

from beamload import forward, inversion, objective
from beamload.errors import DivergenceError
from beamload.forward import solve_forward
from beamload.inversion import (InversionConfig, default_step,
                                reconstruct_parametric, run_inversion)
from beamload.constants import compute_constants
from beamload.measurements import (MovingGaussian, NoiseSpec, add_noise,
                                   smooth_to_h1)
from beamload.model import (CoefficientSet, LoadField, MeasurementSeries,
                            SpaceTimeGrid, l2_norm_spacetime)


@pytest.fixture(scope="module")
def twin():
    grid = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=16,
                         n_steps=96)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.0, T_r=0.0,
                                     r=0.1, kappa=0.02)
    x = grid.nodes[:, None]
    t = grid.times[None, :]
    truth = LoadField(np.sin(np.pi * x) * np.sin(np.pi * t), grid)
    series = solve_forward(coeffs, truth, grid).outputs
    return grid, coeffs, truth, series


def test_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(omega=-1.0)
    with pytest.raises(ValueError):
        InversionConfig(tau_d=1.0)
    with pytest.raises(ValueError):
        InversionConfig(step_rule="steepest")
    for bad in (dict(omega=float("nan")), dict(tau_d=float("nan")),
                dict(max_iterations=-1)):
        with pytest.raises(ValueError):
            InversionConfig(**bad)


def test_default_step_is_inverse_gradient_lipschitz(twin):
    grid, coeffs, _, _ = twin
    cfg = InversionConfig()
    consts = compute_constants(grid.length, grid.final_time, coeffs.bounds)
    assert default_step(grid, coeffs, cfg) == pytest.approx(1.0 / consts.L_G)


def test_zero_measurements_stop_immediately(twin):
    grid, coeffs, _, _ = twin
    z = np.zeros(grid.n_times)
    series = MeasurementSeries(theta0=z, thetaL=z)
    state = run_inversion(series, coeffs, grid)
    assert state.stop_reason == "discrepancy"
    assert state.iterations == 0
    assert np.all(state.load.values == 0.0)


def test_fixed_step_monotone_decrease(twin):
    grid, coeffs, _, series = twin
    cfg = InversionConfig(step_rule="fixed", max_iterations=50)
    state = run_inversion(series, coeffs, grid, config=cfg)
    J = np.array(state.J_history)
    assert np.all(np.diff(J) <= 1e-16 * J[0])
    assert J[-1] < J[0]


def test_oversized_fixed_step_raises(twin):
    grid, coeffs, _, series = twin
    cfg = InversionConfig(step_rule="fixed", omega=1e6, max_iterations=50)
    with pytest.raises(DivergenceError):
        run_inversion(series, coeffs, grid, config=cfg)


def test_backtracking_outpaces_fixed_step(twin):
    grid, coeffs, _, series = twin
    fixed = run_inversion(series, coeffs, grid, config=InversionConfig(
        step_rule="fixed", max_iterations=30))
    back = run_inversion(series, coeffs, grid, config=InversionConfig(
        step_rule="backtracking", max_iterations=30))
    assert back.J_history[-1] < fixed.J_history[-1]
    assert back.J_history[-1] < 1e-2 * back.J_history[0]


def test_morozov_stopping_level(twin):
    grid, coeffs, _, series = twin
    noisy = add_noise(series, NoiseSpec(delta_rel=0.05, seed=1), grid.dt)
    smooth = smooth_to_h1(noisy, grid.times)
    cfg = InversionConfig(step_rule="backtracking", max_iterations=200,
                          noise_delta=noisy.noise_delta, tau_d=1.1)
    state = run_inversion(smooth, coeffs, grid, config=cfg)
    assert state.stop_reason == "discrepancy"
    target = cfg.tau_d * noisy.noise_delta
    final = state.discrepancy_history[-1]
    # stops at the first iterate under the level, hence within a factor 2
    assert final <= target
    assert state.discrepancy_history[-2] > target
    assert final > target / 2.0


def test_admissible_projection_is_enforced(twin):
    grid, coeffs, _, series = twin
    C_F = 1e-4
    cfg = InversionConfig(step_rule="backtracking", max_iterations=10,
                          C_F=C_F)
    state = run_inversion(series, coeffs, grid, config=cfg)
    assert l2_norm_spacetime(state.load) ** 2 <= C_F * (1 + 1e-12)


def test_parametric_noiseless_twin_recovers_parameters():
    grid = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=16,
                         n_steps=96)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.0,
                                     r=0.5, kappa=0.02)
    truth = MovingGaussian(amplitude=2.0, speed=1.0, sigma=0.15)
    series = solve_forward(coeffs, truth.field(grid), grid).outputs
    start = MovingGaussian(amplitude=1.0, speed=0.8, sigma=0.2)
    result = reconstruct_parametric(series, coeffs, grid, start)
    assert result.converged
    assert result.identifiable
    rel = np.abs(result.family.parameters - truth.parameters) \
        / np.abs(truth.parameters)
    assert np.max(rel) < 0.01


def test_newmark_passes_do_not_grow_with_iterations(twin, monkeypatch):
    """Only the two passes that build the impulse kernel integrate in
    time; every iteration and line-search trial convolves."""
    grid, coeffs, _, series = twin
    calls = []
    integrate = forward.newmark_integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(forward, "newmark_integrate", counted)
    counts = []
    for n in (5, 20):
        calls.clear()
        state = run_inversion(series, coeffs, grid, config=InversionConfig(
            step_rule="backtracking", max_iterations=n))
        assert state.iterations == n
        counts.append(len(calls))
    assert counts == [2, 2]


# omega = 1 makes every line search reject several trials first
@pytest.mark.parametrize("rule,omega", [("fixed", None),
                                        ("backtracking", 1.0)])
def test_reused_evaluation_matches_a_fresh_one(twin, monkeypatch, rule,
                                               omega):
    """Passing the known misfit on to the gradient changes no bit of the
    run."""
    grid, coeffs, _, series = twin
    cfg = InversionConfig(step_rule=rule, omega=omega, max_iterations=15)
    reused = run_inversion(series, coeffs, grid, config=cfg)
    gradient = inversion.compute_gradient

    def fresh(*args, evaluation=None, **kwargs):
        return gradient(*args, **kwargs)

    monkeypatch.setattr(inversion, "compute_gradient", fresh)
    plain = run_inversion(series, coeffs, grid, config=cfg)
    assert np.array_equal(reused.load.values, plain.load.values)
    assert np.array_equal(reused.J_history, plain.J_history)
    assert np.array_equal(reused.grad_history, plain.grad_history)


def test_backtracking_evaluates_each_trial_once(twin, monkeypatch):
    """One misfit evaluation for the start point, then one per trial: the
    gradient at an accepted trial reuses the trial's evaluation."""
    grid, coeffs, _, series = twin
    calls = {"inversion": 0, "objective": 0}
    evaluate = objective.evaluate_objective

    def counted(module):
        def wrapper(*args, **kwargs):
            calls[module] += 1
            return evaluate(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(inversion, "evaluate_objective",
                        counted("inversion"))
    monkeypatch.setattr(objective, "evaluate_objective",
                        counted("objective"))
    state = run_inversion(series, coeffs, grid, config=InversionConfig(
        step_rule="backtracking", omega=1.0, max_iterations=10))
    assert state.iterations == 10
    # the trials, all made by the line search
    assert calls["inversion"] > state.iterations
    assert calls["objective"] == 1
