import dataclasses
import tracemalloc

import numpy as np
import pytest

from beamload import forward, inversion, objective
from beamload.errors import DimensionError, DivergenceError
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
    # with omega given no constant is computed, so the variant is checked
    # when the config is made
    with pytest.raises(ValueError, match="unknown C_T variant"):
        InversionConfig(ct_variant="bogus", omega=1.0)
    for bad in (dict(omega=float("nan")), dict(tau_d=float("nan")),
                dict(max_iterations=-1), dict(C_F=-1.0), dict(C_F=0.0),
                dict(C_F=float("nan")), dict(noise_delta=-1.0),
                dict(noise_delta=float("nan"))):
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


@pytest.mark.parametrize("omega", [1e300, np.inf])
def test_step_out_of_range_raises_at_the_outputs(twin, omega):
    """A fixed step out of floating range makes the coordinates
    non-finite, and `ImpulseKernel.output_series` refuses their outputs:
    the loop makes no check of its own on them.  The kernel that refuses
    is the loop's, which convolves its q coordinates."""
    grid, coeffs, _, series = twin
    cfg = InversionConfig(step_rule="fixed", omega=omega, max_iterations=5)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError,
                           match="^non-finite output$") as raised:
            run_inversion(series, coeffs, grid, config=cfg)
    assert raised.traceback[-1].name == "output_series"
    q = inversion._FieldCoordinates(forward.beam_kernel(grid, coeffs),
                                    series, grid).q
    assert raised.traceback[-1].locals["self"].rank == (q, q)


# the three consumers of measured slopes, each with the kernel of its
# beam and a start where it needs one
MEASUREMENT_CONSUMERS = {
    "run_inversion": lambda series, coeffs, grid: run_inversion(
        series, coeffs, grid),
    "evaluate_objective": lambda series, coeffs, grid: (
        objective.evaluate_objective(LoadField.zero(grid), series,
                                     forward.beam_kernel(grid, coeffs))),
    "reconstruct_parametric": lambda series, coeffs, grid: (
        reconstruct_parametric(series, coeffs, grid,
                               MovingGaussian(amplitude=1.0, speed=1.0,
                                              sigma=0.2))),
}


@pytest.mark.parametrize("consumer", MEASUREMENT_CONSUMERS)
def test_measurements_off_the_time_grid_raise(consumer):
    """Slopes of 32 instants on an 8x32 grid (33 instants) raise one
    DimensionError in every consumer, where the two channels are
    stacked to be compared with the kernel's outputs."""
    grid = SpaceTimeGrid(1.0, 1.0, 8, 32)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.1,
                                     r=0.8, kappa=0.02)
    rng = np.random.default_rng(0)
    series = MeasurementSeries(*rng.normal(size=(2, grid.n_times - 1)))
    with pytest.raises(DimensionError,
                       match="^measurements do not match the time grid$"):
        MEASUREMENT_CONSUMERS[consumer](series, coeffs, grid)


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
    calls = {"residual": 0, "adjoint_series": 0, "adjoint": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fit = inversion.minimize
    monkeypatch.setattr(inversion, "minimize", lambda fun, *args, **kwargs:
                        fit(counted("residual", fun), *args, **kwargs))
    for name in ("adjoint_series", "adjoint"):
        monkeypatch.setattr(forward.ImpulseKernel, name, counted(
            name, getattr(forward.ImpulseKernel, name)))
    result = reconstruct_parametric(series, coeffs, grid, start)
    assert result.n_evaluations == calls["residual"] > 1
    assert calls["adjoint_series"] == calls["adjoint"] == 0
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
    time; every iteration and line-search trial convolves, and a second
    run on the same beam reuses the kernel and makes no pass."""
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
    assert counts == [1, 0]


# omega = 1 makes every line search reject several trials first
@pytest.mark.parametrize("omega", [None, 1.0])
def test_reused_evaluation_matches_a_fresh_one(twin, monkeypatch, omega):
    """Handing the line search's output residual on to the gradient
    changes no bit of the run."""
    grid, coeffs, _, series = twin
    cfg = InversionConfig(step_rule="backtracking", omega=omega,
                          max_iterations=15)
    reused = run_inversion(series, coeffs, grid, config=cfg)
    backtrack = inversion._backtrack

    def fresh(Z, Y, J, omega, coords, current):
        new, J_new, _ = backtrack(Z, Y, J, omega, coords, current)
        return new, J_new, coords.evaluate(new)[1]

    monkeypatch.setattr(inversion, "_backtrack", fresh)
    plain = run_inversion(series, coeffs, grid, config=cfg)
    assert np.array_equal(reused.load.values, plain.load.values)
    assert np.array_equal(reused.J_history, plain.J_history)
    assert np.array_equal(reused.grad_history, plain.grad_history)


def test_backtracking_halves_a_first_trial_that_is_too_long(twin):
    """Along the gradient line J(s) = J - s c + s^2 b / 2 is least at
    s* = c / b.  A first trial at 6 s* raises J, as does 3 s*, and
    1.5 s* lowers it, so the line search halves twice and accepts
    BACKTRACK_START omega / 4."""
    grid, coeffs, _, series = twin
    coords = inversion._FieldCoordinates(forward.beam_kernel(grid, coeffs),
                                         series, grid)
    Z = np.zeros((coords.q + 2, grid.n_times))
    J, residual = coords.evaluate(Z)
    Y = coords.gradient(residual)
    AY = coords.kernel.output_series(Y[:coords.q])
    c, b = ((AY * residual).sum(axis=0) @ coords.w_t,
            (AY * AY).sum(axis=0) @ coords.w_t)
    assert c > 0
    omega = 6.0 * c / b / inversion.BACKTRACK_START
    trial, J_trial, _ = inversion._backtrack(Z, Y, J, omega, coords, residual)
    steps = [k for k in range(inversion.BACKTRACK_HALVINGS)
             if np.array_equal(trial, Z - omega * inversion.BACKTRACK_START
                               * 0.5 ** k * Y)]
    assert steps == [2]
    assert J_trial < J
    assert J_trial == coords.evaluate(trial)[0]


def test_step_projects_onto_the_ball(twin):
    """A step that leaves the ball ||F||^2 <= C_F is scaled onto its
    sphere; one that stays inside, or lands on Z = 0, is Z - s Y bit for
    bit, and without a ball nothing is scaled."""
    grid, coeffs, _, series = twin
    kernel = forward.beam_kernel(grid, coeffs)
    free = inversion._FieldCoordinates(kernel, series, grid)
    Z = np.zeros((free.q + 2, grid.n_times))
    Y = free.gradient(free.evaluate(Z)[1])
    Z = free.step(Z, Y, 1.0)
    s = 0.5
    stepped = Z - s * Y
    sq = free.sq_norm(stepped)
    assert sq > 0
    assert np.array_equal(free.step(Z, Y, s), stepped)
    outside = inversion._FieldCoordinates(kernel, series, grid, 0.25 * sq)
    assert outside.sq_norm(outside.step(Z, Y, s)) == pytest.approx(
        0.25 * sq, rel=1e-12)
    inside = inversion._FieldCoordinates(kernel, series, grid, 4.0 * sq)
    assert np.array_equal(inside.step(Z, Y, s), stepped)
    # Z = s Y steps to 0 exactly, which no ball scales
    assert np.array_equal(outside.step(s * Y, Y, s), np.zeros_like(Z))


# scripted misfits J_0, J_1, ...: three rises in a row raise at the
# third; two rises, then a fall or a tie, do not
@pytest.mark.parametrize("script,evaluations", [
    ([9.0, 5.0, 6.0, 7.0, 8.0, 1.0], 5),
    ([9.0, 5.0, 6.0, 7.0, 4.0, 5.0, 6.0, 3.0], None),
    ([9.0, 5.0, 6.0, 6.0, 7.0, 8.0, 2.0], None),
], ids=["three_rises", "two_rises_then_a_fall", "a_tie"])
def test_fixed_rule_raises_on_the_third_consecutive_rise(
        twin, monkeypatch, script, evaluations):
    grid, coeffs, _, series = twin
    calls = []

    def scripted(self, Z):
        calls.append(Z)
        return script[len(calls) - 1], np.ones((2, grid.n_times))

    monkeypatch.setattr(inversion._FieldCoordinates, "evaluate", scripted)
    config = InversionConfig(step_rule="fixed",
                             max_iterations=len(script) - 1)
    if evaluations is None:
        state = run_inversion(series, coeffs, grid, config=config)
        assert state.stop_reason == "max-iter"
        assert state.J_history == script
        return
    with pytest.raises(DivergenceError, match="3 consecutive"):
        run_inversion(series, coeffs, grid, config=config)
    assert len(calls) == evaluations


def _kernel_calls(count_calls, monkeypatch):
    """Counters of the convolutions, of the kernel's coordinate and nodal
    operators, of the paper's objective and gradient, and of the trial
    loads the loop makes (`_FieldCoordinates.step`)."""
    calls = count_calls(forward.convolve_t1, objective.evaluate_objective,
                        objective.compute_gradient)

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for cls, name in ((forward.ImpulseKernel, "output_series"),
                      (forward.ImpulseKernel, "adjoint_series"),
                      (forward.ImpulseKernel, "outputs"),
                      (forward.ImpulseKernel, "adjoint"),
                      (inversion._FieldCoordinates, "step")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    return calls


def _assert_coordinate_convolutions(calls, state, trials):
    """One output convolution at F = 0 and one per trial, one adjoint
    convolution per iterate and one more for the load when the loop
    stops, no other convolution and no nodal operator: neither the
    kernel's `outputs` and `adjoint` nor the paper's `evaluate_objective`
    and `compute_gradient`."""
    assert calls["output_series"] == 1 + trials
    assert calls["adjoint_series"] == state.iterations + 1 + 1
    assert calls["convolve_t1"] == (calls["output_series"]
                                    + calls["adjoint_series"])
    for nodal in ("outputs", "adjoint", "evaluate_objective",
                  "compute_gradient"):
        assert calls[nodal] == 0, nodal


def test_backtracking_evaluates_each_trial_once(twin, count_calls,
                                                monkeypatch):
    """Counted at the kernel: one output convolution for the start point,
    then one per trial, and one adjoint convolution per iterate, since
    the gradient at an accepted trial reuses the trial's residual.
    omega = 1 forces rejected trials."""
    grid, coeffs, _, series = twin
    calls = _kernel_calls(count_calls, monkeypatch)
    state = run_inversion(series, coeffs, grid, config=InversionConfig(
        step_rule="backtracking", omega=1.0, max_iterations=10))
    assert state.iterations == 10
    # with the backtracking rule every step is a line-search trial
    assert calls["step"] > state.iterations
    _assert_coordinate_convolutions(calls, state, calls["step"])


def test_fixed_step_convolves_twice_per_iteration(twin, count_calls,
                                                  monkeypatch):
    """The fixed rule makes one trial per iteration: two convolutions."""
    grid, coeffs, _, series = twin
    calls = _kernel_calls(count_calls, monkeypatch)
    state = run_inversion(series, coeffs, grid, config=InversionConfig(
        step_rule="fixed", max_iterations=10))
    assert state.iterations == calls["step"] == 10
    _assert_coordinate_convolutions(calls, state, state.iterations)


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


def test_loop_runs_at_the_rank_of_what_it_reads(fullfield, random_case):
    """The loop's coordinates V are the orthonormal basis that
    `_factor_rows` keeps of the coupling P and field Gram G stacked, each
    scaled to Frobenius norm 1: no row of P - P V V' or of G - V V' G V V'
    is above the rule's tolerance, max(m, n) eps times the largest
    stacked row, and V is the same in any units of P and G.  On the
    fullfield kernel q is fewer than half its r_adj; on random grids
    0-7, full-rank kernels, q is at most r_adj."""
    grid, coeffs, series, _ = fullfield
    cases = [(grid, coeffs, series)]
    for seed in range(8):
        grid, coeffs, _, _ = random_case(seed)
        z = np.zeros(grid.n_times)
        cases.append((grid, coeffs, MeasurementSeries(z, z)))
    for case, (grid, coeffs, series) in enumerate(cases):
        kernel = forward.beam_kernel(grid, coeffs)
        coords = inversion._FieldCoordinates(kernel, series, grid)
        P, G, V = kernel.coupling, kernel.field_gram, coords.V
        q = coords.q
        assert V.shape == (kernel.rank[1], q) and q > 0, case
        if case == 0:
            assert q <= 16 < kernel.rank[1]
        assert np.allclose(V.T @ V, np.eye(q), rtol=0.0, atol=1e-14), case
        p, g = np.linalg.norm(P), np.linalg.norm(G)
        stacked = np.vstack([P / p, G / g])
        tol = max(stacked.shape) * np.finfo(float).eps * np.linalg.norm(
            stacked, axis=1).max()
        VV = V @ V.T
        for dropped in (P / p - P / p @ VV, (G - VV @ G @ VV) / g):
            assert np.linalg.norm(dropped, axis=1).max() <= tol, case
        assert np.array_equal(coords.G, V.T @ G @ V), case
        assert coords.kernel.rank == (q, q), case
        # powers of 2 scale exactly, so the scaled stack is the same bits
        rescaled = dataclasses.replace(kernel, coupling=P * 2.0 ** 30,
                                       field_gram=G * 2.0 ** -30)
        assert np.array_equal(inversion._FieldCoordinates(
            rescaled, series, grid).V, V), case


def _degenerate_case(rho_A, n_elements=8, n_steps=32):
    """A beam of mass density rho_A, 8x32 by default, and random
    slopes."""
    grid = SpaceTimeGrid(1.0, 1.0, n_elements, n_steps)
    coeffs = CoefficientSet.constant(grid, rho_A=rho_A, mu=0.05, T_r=0.1,
                                     r=0.8, kappa=0.02)
    series = MeasurementSeries(*np.random.default_rng(0).normal(
        size=(2, grid.n_times)))
    return grid, coeffs, series


def test_rank_zero_kernel_stops_cleanly():
    """A beam too heavy to move has a kernel of rank 0: the loop runs on
    q = 0 coordinates and stops on its vanishing gradient at the zero
    load, with no floating-point exception."""
    grid, coeffs, series = _degenerate_case(1e300)
    assert forward.beam_kernel(grid, coeffs).rank == (0, 0)
    with np.errstate(all="raise"):
        state = run_inversion(series, coeffs, grid, InversionConfig(
            step_rule="backtracking", omega=1.0, C_F=1.0))
    assert (state.loop_rank, state.stop_reason) == (0, "gradient")
    assert state.iterations == 0 and state.grad_history == [0.0]
    assert np.all(state.load.values == 0.0)


def test_zero_coupling_is_stacked_unscaled():
    """A zero coupling P is stacked as it is, not divided by its zero
    norm: q is the rank `_factor_rows` finds in the field Gram under P's
    zero rows, which count in its tolerance (11 on 16x96, where numpy's
    `matrix_rank` of the Gram alone is 12), and every output is zero."""
    for shape in ((8, 32), (16, 96)):
        grid, coeffs, series = _degenerate_case(1.0, *shape)
        kernel = forward.beam_kernel(grid, coeffs)
        P = np.zeros_like(kernel.coupling)
        kernel = dataclasses.replace(kernel, coupling=P)
        with np.errstate(all="raise"):
            coords = inversion._FieldCoordinates(kernel, series, grid)
        _, W = forward._factor_rows(np.vstack([P, kernel.field_gram]))
        assert coords.q == len(W) > 0
        Z = np.ones((coords.q + 2, grid.n_times))
        _, residual = coords.evaluate(Z)
        assert np.array_equal(residual, -series.stacked(grid))


def test_factored_kernel_runs_the_full_kernels_inversion(
        fullfield, full_kernel, monkeypatch):
    """Backtracking Landweber to the Morozov stop takes the same steps on
    the factored kernel as on the unfactored one."""
    grid, coeffs, smooth, delta = fullfield
    config = InversionConfig(step_rule="backtracking", max_iterations=800,
                             noise_delta=delta)
    ours = run_inversion(smooth, coeffs, grid, config=config)
    monkeypatch.setattr(forward, "impulse_kernel", full_kernel)
    forward._beam_kernels.clear()
    full = run_inversion(smooth, coeffs, grid, config=config)
    assert ours.kernel_rank < full.kernel_rank == (65, 63)
    assert ours.stop_reason == full.stop_reason == "discrepancy"
    assert ours.iterations == full.iterations > 50
    J, J_full = np.array(ours.J_history), np.array(full.J_history)
    assert np.max(np.abs(J - J_full) / J_full) <= 1e-10


def _counted_builds(count_calls):
    """Counters of the three steps of a kernel build."""
    return count_calls(forward.impulse_kernel, assemble,
                       forward.newmark_integrate)


def test_second_inversion_on_one_beam_builds_no_kernel(fullfield,
                                                       count_calls):
    """A repeated inversion on the same beam and grid reuses the kept
    kernel: no assemble, no Newmark pass, no factorization, and the same
    bits as the run that built it."""
    grid, coeffs, smooth, delta = fullfield
    config = InversionConfig(step_rule="backtracking", max_iterations=800,
                             noise_delta=delta)
    calls = _counted_builds(count_calls)
    cold = run_inversion(smooth, coeffs, grid, config=config)
    assert calls == {"impulse_kernel": 1, "assemble": 1,
                     "newmark_integrate": 1}
    calls.clear()
    warm = run_inversion(smooth, coeffs, grid, config=config)
    assert sum(calls.values()) == 0
    assert cold.stop_reason == warm.stop_reason == "discrepancy"
    assert np.array_equal(warm.J_history, cold.J_history)
    assert np.array_equal(warm.load.values, cold.load.values)
    assert warm.kernel_rank == cold.kernel_rank


def test_second_parametric_fit_on_one_beam_builds_no_kernel(fullfield,
                                                            count_calls):
    """The criterion-7 twin (1 % noise, seed 0) fitted twice on one beam:
    the second fit builds nothing and lands on the same bits."""
    grid, coeffs, _, _ = fullfield
    truth = MovingGaussian(amplitude=2.0, speed=1.0, sigma=0.15)
    noisy = add_noise(solve_forward(coeffs, truth.field(grid), grid).outputs,
                      NoiseSpec(delta_rel=0.01, seed=0), grid.dt)
    smooth = smooth_to_h1(noisy, grid.times)
    start = MovingGaussian(amplitude=1.0, speed=0.8, sigma=0.2)
    calls = _counted_builds(count_calls)
    cold = reconstruct_parametric(smooth, coeffs, grid, start)
    assert calls["impulse_kernel"] == 1
    calls.clear()
    warm = reconstruct_parametric(smooth, coeffs, grid, start)
    assert sum(calls.values()) == 0
    assert np.array_equal(warm.family.parameters, cold.family.parameters)
    assert warm.J == cold.J and warm.n_evaluations == cold.n_evaluations
    assert warm.kernel_rank == cold.kernel_rank


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


def _oracle_case(source, fullfield, random_case):
    """(grid, coeffs, measurements, noise level) of the fullfield case,
    or of a random full-rank case with noiseless data of a random load."""
    if source == "fullfield":
        return fullfield
    grid, coeffs, system, rng = random_case(source)
    kernel = impulse_kernel(system, grid)
    assert kernel.rank == (grid.n_nodes, grid.n_nodes - 2)
    truth = rng.normal(size=(grid.n_nodes, grid.n_times))
    return grid, coeffs, MeasurementSeries(*kernel.outputs(truth)), 0.0


def _outcome(loop, *args):
    """The run's state, or the DivergenceError it raised."""
    try:
        return loop(*args)
    except DivergenceError as error:
        return error


@pytest.mark.parametrize("bounded", [False, True], ids=["free", "C_F"])
@pytest.mark.parametrize("step_rule", ["fixed", "backtracking"])
@pytest.mark.parametrize("source", ["fullfield", 0, 1, 2, 3, 4])
def test_coordinate_loop_matches_the_nodal_loop(
        source, step_rule, bounded, fullfield, random_case,
        nodal_landweber):
    """The loop on the kernel's field coordinates takes the nodal loop's
    steps: the same iteration count and stop reason, and its misfit and
    gradient histories and load agree to 1e-12 relative, on the factored
    fullfield kernel (to the Morozov stop) and on full-rank random grids,
    with the C_F ball off and binding.  The runs stop before the misfit
    stagnates at round-off, where a trial's acceptance is decided by
    round-off and the two loops may part.  With the fixed rule and the
    ball binding, random grids 0 and 1 raise DivergenceError in both
    loops: on the sphere the projected step of the continuous adjoint's
    gradient raises the discrete misfit."""
    grid, coeffs, series, delta = _oracle_case(source, fullfield,
                                               random_case)
    long_run = source == "fullfield" and step_rule == "backtracking"
    config = InversionConfig(step_rule=step_rule, noise_delta=delta,
                             max_iterations=800 if long_run else 20)
    if bounded:
        free = nodal_landweber(series, coeffs, grid, config)
        C_F = 0.25 * l2_norm_spacetime(free.load) ** 2
        config = InversionConfig(step_rule=step_rule, noise_delta=delta,
                                 max_iterations=15, C_F=C_F)
    ours = _outcome(run_inversion, series, coeffs, grid, config)
    oracle = _outcome(nodal_landweber, series, coeffs, grid, config)
    if isinstance(oracle, DivergenceError):
        assert isinstance(ours, DivergenceError)
        assert str(ours).startswith("misfit increased for 3")
        return
    if bounded:
        assert l2_norm_spacetime(ours.load) ** 2 == pytest.approx(
            config.C_F, rel=1e-12)
    assert ours.kernel_rank == oracle.kernel_rank
    if source == "fullfield":
        assert ours.kernel_rank[1] < grid.n_nodes - 2
    if long_run and not bounded:
        assert oracle.stop_reason == "discrepancy"
    assert ours.stop_reason == oracle.stop_reason
    assert ours.iterations == oracle.iterations
    for a, b in ((ours.J_history, oracle.J_history),
                 (ours.grad_history, oracle.grad_history)):
        a, b = np.array(a), np.array(b)
        assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b))
    F, F_oracle = ours.load.values, oracle.load.values
    assert np.max(np.abs(F - F_oracle)) <= 1e-12 * np.max(np.abs(F_oracle))
