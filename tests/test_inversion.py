import tracemalloc

import numpy as np
import pytest

from beamload import forward, inversion, objective
from beamload.errors import DivergenceError
from beamload.assembly import assemble
from beamload.forward import impulse_kernel, solve_forward
from beamload.inversion import (InversionConfig, default_step,
                                reconstruct_parametric, run_inversion)
from beamload.constants import compute_constants
from beamload.measurements import (ModalLoad, MovingGaussian, NoiseSpec,
                                   add_noise, smooth_to_h1)
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
                dict(max_iterations=-1), dict(C_F=-1.0), dict(C_F=0.0),
                dict(C_F=float("nan"))):
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


def test_vanishing_gradient_stops(twin):
    grid, coeffs, _, series = twin
    tiny = MeasurementSeries(theta0=1e-20 * series.theta0,
                             thetaL=1e-20 * series.thetaL)
    state = run_inversion(tiny, coeffs, grid)
    assert state.stop_reason == "gradient"
    assert state.iterations == 0
    assert 0.0 < state.grad_history[0] < inversion.GRAD_TOL


def test_stagnating_misfit_stops(twin):
    grid, coeffs, _, series = twin
    cfg = InversionConfig(step_rule="fixed", omega=1e-30, max_iterations=50)
    state = run_inversion(series, coeffs, grid, config=cfg)
    assert state.stop_reason == "stagnation"
    assert state.iterations == inversion.STAGNATION_WINDOW


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


def test_parametric_modal_twin_recovers_coefficients(twin):
    """Noiseless data of the fit's own model: the least-squares fit of a
    load linear in its coefficients lands on them."""
    grid, coeffs, _, _ = twin
    truth = ModalLoad((1.0, 0.5, -0.25))
    kernel = impulse_kernel(assemble(grid, coeffs), grid)
    series = MeasurementSeries(*kernel.outputs(truth.field(grid).values))
    result = reconstruct_parametric(series, coeffs, grid,
                                    ModalLoad((0.0, 0.0, 0.0)))
    assert result.converged and result.identifiable
    assert np.max(np.abs(result.family.parameters - truth.parameters)) \
        <= 1e-9


def test_zero_amplitude_is_not_identifiable(twin):
    """A load of zero amplitude leaves speed and width unseen: two of the
    fit's three sensitivity columns vanish."""
    grid, coeffs, _, _ = twin
    z = np.zeros(grid.n_times)
    result = reconstruct_parametric(
        MeasurementSeries(theta0=z, thetaL=z), coeffs, grid,
        MovingGaussian(amplitude=0.0, speed=1.0, sigma=0.15))
    assert result.J == 0.0
    assert not result.identifiable


@pytest.mark.parametrize("truth,start", [
    (MovingGaussian(amplitude=2.0, speed=1.0, sigma=0.15),
     MovingGaussian(amplitude=1.0, speed=0.8, sigma=0.2)),
    (ModalLoad((1.0, 0.5)), ModalLoad((0.2, 0.1))),
])
def test_parametric_fit_is_least_squares_on_the_outputs(twin, monkeypatch,
                                                        truth, start):
    """`n_evaluations` counts the residual calls, no adjoint gradient is
    made, and the fit's cost is the misfit J at the fitted load."""
    grid, coeffs, _, _ = twin
    # noisy, so that J stays far above the round-off of its sum
    series = add_noise(solve_forward(coeffs, truth.field(grid), grid).outputs,
                       NoiseSpec(delta_rel=0.01, seed=0), grid.dt)
    calls = {"residual": 0, "gradient": 0, "adjoint": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fit = inversion.minimize
    monkeypatch.setattr(inversion, "minimize", lambda fun, *args, **kwargs:
                        fit(counted("residual", fun), *args, **kwargs))
    monkeypatch.setattr(inversion, "compute_gradient",
                        counted("gradient", inversion.compute_gradient))
    monkeypatch.setattr(forward.ImpulseKernel, "adjoint",
                        counted("adjoint", forward.ImpulseKernel.adjoint))
    result = reconstruct_parametric(series, coeffs, grid, start)
    assert result.n_evaluations == calls["residual"] > 1
    assert calls["gradient"] == calls["adjoint"] == 0
    kernel = impulse_kernel(assemble(grid, coeffs), grid)
    J = objective.evaluate_objective(result.family.field(grid), series,
                                     kernel).J
    assert result.J == pytest.approx(J, rel=1e-12, abs=0.0)


def test_discrepancy_is_derived_from_the_misfit(twin):
    grid, coeffs, _, series = twin
    state = run_inversion(series, coeffs, grid, config=InversionConfig(
        step_rule="backtracking", max_iterations=5))
    assert state.discrepancy_history == [np.sqrt(2.0 * J)
                                         for J in state.J_history]
    assert len(state.discrepancy_history) == state.iterations + 1


def test_newmark_passes_do_not_grow_with_iterations(twin, monkeypatch):
    """Only the one pass that builds the impulse kernel integrates in
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
    assert counts == [1, 1]


# omega = 1 makes every line search reject several trials first
@pytest.mark.parametrize("omega", [None, 1.0])
def test_reused_evaluation_matches_a_fresh_one(twin, monkeypatch, omega):
    """Handing the line search's evaluation on to the gradient changes no
    bit of the run."""
    grid, coeffs, _, series = twin
    cfg = InversionConfig(step_rule="backtracking", omega=omega,
                          max_iterations=15)
    reused = run_inversion(series, coeffs, grid, config=cfg)
    backtrack = inversion._backtrack

    def fresh(load, grad, J, omega, C_F, measurements, current):
        new, J_new, _ = backtrack(load, grad, J, omega, C_F, measurements,
                                  current)
        return new, J_new, objective.evaluate_objective(
            new, measurements, current.kernel)

    monkeypatch.setattr(inversion, "_backtrack", fresh)
    plain = run_inversion(series, coeffs, grid, config=cfg)
    assert np.array_equal(reused.load.values, plain.load.values)
    assert np.array_equal(reused.J_history, plain.J_history)
    assert np.array_equal(reused.grad_history, plain.grad_history)


def test_backtracking_evaluates_each_trial_once(twin, monkeypatch):
    """One misfit evaluation for the start point, then one per trial: the
    gradient at an accepted trial reuses the trial's evaluation."""
    grid, coeffs, _, series = twin
    calls = {"evaluations": 0, "trials": 0}
    evaluate, step = inversion.evaluate_objective, inversion._step

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(inversion, "evaluate_objective",
                        counted("evaluations", evaluate))
    monkeypatch.setattr(objective, "evaluate_objective",
                        counted("evaluations", evaluate))
    # with the backtracking rule every step is a line-search trial
    monkeypatch.setattr(inversion, "_step", counted("trials", step))
    state = run_inversion(series, coeffs, grid, config=InversionConfig(
        step_rule="backtracking", omega=1.0, max_iterations=10))
    assert state.iterations == 10
    assert calls["trials"] > state.iterations
    assert calls["evaluations"] == 1 + calls["trials"]


@pytest.fixture(scope="module")
def fullfield():
    """The full-field Morozov benchmark's case: 64x512, rho_A 1, mu 0.05,
    T_r 0, r 0.5, kappa 0.02, a moving Gaussian's slopes at 5 % noise,
    smoothed, and its absolute noise level."""
    grid = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=64,
                         n_steps=512)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.0,
                                     r=0.5, kappa=0.02)
    truth = MovingGaussian(amplitude=2.0, speed=1.0, sigma=0.15)
    noisy = add_noise(solve_forward(coeffs, truth.field(grid), grid).outputs,
                      NoiseSpec(delta_rel=0.05, seed=1), grid.dt)
    return grid, coeffs, smooth_to_h1(noisy, grid.times), noisy.noise_delta


def test_fullfield_kernel_convolves_few_series(fullfield):
    """Kelvin-Voigt damping makes the responses over the nodes low-rank:
    each convolution transforms at most 32 series, not 65 or 63."""
    grid, coeffs, _, _ = fullfield
    r_out, r_adj = impulse_kernel(assemble(grid, coeffs), grid).rank
    assert r_out <= 32 and r_adj <= 32


def test_factored_kernel_runs_the_full_kernels_inversion(
        fullfield, full_kernel, monkeypatch):
    """Backtracking Landweber to the Morozov stop takes the same steps on
    the factored kernel as on the unfactored one."""
    grid, coeffs, smooth, delta = fullfield
    config = InversionConfig(step_rule="backtracking", max_iterations=800,
                             noise_delta=delta)
    ours = run_inversion(smooth, coeffs, grid, config=config)
    monkeypatch.setattr(inversion, "impulse_kernel", full_kernel)
    full = run_inversion(smooth, coeffs, grid, config=config)
    assert ours.kernel_rank < full.kernel_rank == (65, 63)
    assert ours.stop_reason == full.stop_reason == "discrepancy"
    assert ours.iterations == full.iterations > 50
    J, J_full = np.array(ours.J_history), np.array(full.J_history)
    assert np.max(np.abs(J - J_full) / J_full) <= 1e-10


def test_inversion_memory_is_the_kernels_pass(fullfield):
    """At 64x512 the traced peak of an inversion is the kernel's Newmark
    pass (the forces, u and v of the two end-rotation impulses) and two
    nodal fields: the kernel's factors and their spectra stay below that
    pass, where every node's spectra (2.1 MB) held beside the responses
    did not."""
    grid, coeffs, smooth, delta = fullfield
    n_dofs = assemble(grid, coeffs).n_dofs
    impulse_pass = 3 * 8 * grid.n_times * 2 * n_dofs
    fields = 2 * 8 * grid.n_nodes * grid.n_times
    config = InversionConfig(step_rule="backtracking", max_iterations=10,
                             noise_delta=delta)
    tracemalloc.start()
    try:
        run_inversion(smooth, coeffs, grid, config=config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= impulse_pass + fields
