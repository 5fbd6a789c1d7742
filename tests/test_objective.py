import numpy as np
import pytest

from beamload.assembly import assemble
from beamload.forward import impulse_kernel, solve_forward
from beamload.model import (LoadField, series_l2_norm, spacetime_inner,
                            time_inner)
from beamload.objective import (apply_io_operators, compute_gradient,
                                evaluate_objective)
from beamload.verify import duality_checks, gradient_fd_checks


def test_inner_products_against_closed_forms(small_grid):
    g = small_grid
    a = np.ones((g.n_nodes, g.n_times))
    assert spacetime_inner(a, a, g) == pytest.approx(g.length
                                                     * g.final_time)
    t = g.times
    assert time_inner(np.sin(np.pi * t), np.sin(np.pi * t), g.dt) == (
        pytest.approx(g.final_time / 2, rel=1e-3))


def test_io_operators_match_forward_outputs(small_grid, small_coeffs,
                                            draws):
    rng = np.random.default_rng(0)
    load = draws.load(small_grid, rng)
    th0, thL = apply_io_operators(load, small_coeffs, small_grid)
    traj = solve_forward(small_coeffs, load, small_grid)
    assert np.array_equal(th0, traj.outputs.theta0)
    assert np.array_equal(thL, traj.outputs.thetaL)


def test_objective_at_truth_and_at_zero(small_grid, small_coeffs,
                                        draws):
    rng = np.random.default_rng(1)
    truth = draws.load(small_grid, rng)
    meas = solve_forward(small_coeffs, truth, small_grid).outputs
    kernel = impulse_kernel(assemble(small_grid, small_coeffs), small_grid)
    at_truth = evaluate_objective(truth, meas, kernel)
    assert at_truth.J <= 1e-20
    at_zero = evaluate_objective(LoadField.zero(small_grid), meas, kernel)
    expected = 0.5 * (series_l2_norm(meas.theta0, small_grid.dt) ** 2
                      + series_l2_norm(meas.thetaL, small_grid.dt) ** 2)
    assert at_zero.J == pytest.approx(expected, rel=1e-12)


def test_duality_identity(small_grid, small_coeffs):
    # 2e-2 is the coarse-grid discretization level
    report = duality_checks(small_grid, small_coeffs, n_triples=1, seed=0,
                            tol=2e-2)
    assert report.ok, report.rows


def test_duality_negative_control(small_grid, small_coeffs,
                                  flipped_kernel):
    report = duality_checks(small_grid, small_coeffs, n_triples=2,
                            tol=2e-2, kernel=flipped_kernel)
    assert not report.ok
    assert all(not r.ok for r in report.rows)


def test_gradient_matches_finite_differences(small_grid, small_coeffs):
    report = gradient_fd_checks(small_grid, small_coeffs, n_directions=3,
                                tol=5e-3)
    assert report.ok, report.summary()


def test_gradient_vanishes_at_consistent_data(small_grid, small_coeffs,
                                              draws):
    rng = np.random.default_rng(3)
    truth = draws.load(small_grid, rng)
    meas = solve_forward(small_coeffs, truth, small_grid).outputs
    kernel = impulse_kernel(assemble(small_grid, small_coeffs), small_grid)
    evaluation = evaluate_objective(truth, meas, kernel)
    grad = compute_gradient(evaluation)
    assert evaluation.J <= 1e-20
    assert np.sqrt(spacetime_inner(grad, grad, small_grid)) <= 1e-10


def test_ill_posedness_high_mode_output_collapse(small_grid, small_coeffs):
    """Equal-norm inputs, vastly different output norms: the compact
    input-output map shrinks oscillatory loads."""
    g = small_grid
    x = g.nodes[:, None]
    t = g.times[None, :]
    gate = np.sin(np.pi * t / g.final_time)

    def out_norm(k):
        load = LoadField(np.sin(k * np.pi * x / g.length) * gate, g)
        th0, thL = apply_io_operators(load, small_coeffs, g)
        return np.hypot(series_l2_norm(th0, g.dt),
                        series_l2_norm(thL, g.dt))

    assert out_norm(8) <= 0.1 * out_norm(1)
