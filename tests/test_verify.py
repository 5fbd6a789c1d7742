import collections
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.fft import rfft

from beamload import adjoint, assembly, forward, verify
from beamload.adjoint import check_adjoint_estimates, solve_adjoint
from beamload.constants import compute_constants
from beamload.forward import (band_product, check_apriori_estimates,
                              cumtrapz, solve_forward)
from beamload.model import (DEFAULT_SLACK, CheckRow, CoefficientSet,
                            LoadField, MeasurementSeries, SpaceTimeGrid,
                            l2_norm_spacetime, series_l2_norm,
                            spacetime_inner)
from beamload.objective import compute_gradient, evaluate_objective
from beamload.verify import (duality_checks, random_load,
                             random_smooth_series, verify_inequality_suite)

EXPECTED_PER_SCENARIO = 10 + 1 + 2 + 1 + 6 + 1   # all inequality families


def test_suite_passes_with_zero_violations(small_grid, small_coeffs):
    report = verify_inequality_suite(small_grid, small_coeffs,
                                     n_scenarios=3, seed=0)
    assert report.ok, report.violations
    assert len(report.rows) == 3 * EXPECTED_PER_SCENARIO
    assert "0 violations" in report.summary()


def test_suite_covers_every_check_family(small_grid, small_coeffs):
    report = verify_inequality_suite(small_grid, small_coeffs,
                                     n_scenarios=1, seed=4)
    names = {r.check for r in report.rows}
    for prefix in ("apriori_ut", "apriori_uxx", "apriori_trace",
                   "poincare", "io_lipschitz_theta0", "io_lipschitz_thetaL",
                   "misfit_lipschitz", "adjoint_phixx", "adjoint_phit",
                   "gradient_lipschitz"):
        assert any(n.startswith(prefix) for n in names), prefix


def test_suite_is_deterministic(small_grid, small_coeffs):
    r1 = verify_inequality_suite(small_grid, small_coeffs, n_scenarios=2)
    r2 = verify_inequality_suite(small_grid, small_coeffs, n_scenarios=2)
    assert r1.rows == r2.rows


def test_empty_suite(small_grid, small_coeffs):
    report = verify_inequality_suite(small_grid, small_coeffs,
                                     n_scenarios=0)
    assert report.ok and report.rows == ()


@pytest.mark.parametrize("check,count", [
    (verify_inequality_suite, "n_scenarios"),
    (duality_checks, "n_triples"),
    (verify.gradient_fd_checks, "n_directions"),
])
def test_empty_check_family_is_free(small_grid, small_coeffs, monkeypatch,
                                    check, count):
    """A count of 0 returns an empty report before any assembly, Newmark
    pass or gradient."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((forward, "newmark_integrate"),
                         (adjoint, "newmark_integrate"),
                         (verify, "assemble"), (verify, "compute_gradient")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert check(small_grid, small_coeffs, **{count: 0}).rows == ()
    assert calls == []


def test_corrected_variant_also_passes(small_grid, small_coeffs):
    report = verify_inequality_suite(small_grid, small_coeffs,
                                     n_scenarios=2, ct_variant="corrected")
    assert report.ok, report.violations


def test_duality_negative_control_flags_all_triples(small_grid,
                                                    small_coeffs,
                                                    flipped_kernel):
    good = duality_checks(small_grid, small_coeffs, n_triples=3, tol=2e-2)
    assert good.ok
    bad = duality_checks(small_grid, small_coeffs, n_triples=3, tol=2e-2,
                         kernel=flipped_kernel)
    assert len(bad.violations) == 3


def test_random_inputs_are_reasonable(small_grid):
    rng = np.random.default_rng(0)
    load = random_load(small_grid, rng)
    assert l2_norm_spacetime(load) > 0
    y, dy = random_smooth_series(small_grid, rng)
    assert y[0] == 0.0              # vanishes at t = 0 by construction
    dt = small_grid.dt
    fd = np.gradient(y, dt)
    interior = slice(2, -2)
    assert np.allclose(fd[interior], dy[interior], atol=5e-2 * np.max(
        np.abs(dy)))


def modal_load_by_mode(grid, c):
    """The values of `_modal_load`, summed one space mode at a time: the
    reference of its single contraction."""
    values = np.zeros((grid.n_nodes, grid.n_times))
    for shape, (a, b), (sin, cos) in zip(verify._mode_shapes(grid),
                                         np.reshape(c, (4, 2)),
                                         verify._load_histories(grid)):
        values += shape[:, None] * (a * sin + b * cos)
    return values


@pytest.mark.parametrize("seed", range(10))
def test_modal_load_is_its_sum_of_modes_bit_for_bit(seed, random_case):
    grid = random_case(seed)[0]
    c = np.random.default_rng(seed).normal(size=8) * 10.0 ** (seed - 5)
    assert np.array_equal(verify._modal_load(grid, c).values,
                          modal_load_by_mode(grid, c))


def test_suite_assembly_does_not_grow_with_scenarios(small_grid,
                                                     small_coeffs,
                                                     count_calls):
    """The system, the unit-norm matrices and the impulse kernel are built
    once per call, and the Newmark passes do not grow with the scenarios:
    the space modes' and the end rotations', which also builds the
    kernel."""
    calls = count_calls(assembly.assemble, assembly.unit_norm_matrices,
                        forward.impulse_kernel, forward.newmark_integrate)
    counts = []
    for n in (1, 3):
        calls.clear()
        verify_inequality_suite(small_grid, small_coeffs, n_scenarios=n)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0] == {"assemble": 1, "unit_norm_matrices": 1,
                         "impulse_kernel": 1, "newmark_integrate": 2}


def _newmark_replay(grid, coeffs, system, n_scenarios, seed):
    """The suite's rows from its replayed draws (load, Poincare amplitudes,
    load2, truth, p, q per scenario): the estimates on `solve_forward` and
    `solve_adjoint` states, the Lipschitz rows on `evaluate_objective` and
    `compute_gradient` of the impulse kernel."""
    rng = np.random.default_rng(seed)
    kernel = forward.impulse_kernel(system, grid)
    unit = assembly.unit_norm_matrices(grid)
    l, dt = grid.length, grid.dt
    rows = []
    for s in range(n_scenarios):
        tag = f"s{s:02d}"
        load = random_load(grid, rng)
        rows += check_apriori_estimates(
            solve_forward(coeffs, load, grid, system=system), coeffs, load,
            unit, scenario=tag)
        amps = rng.normal(size=3)
        rows.append(CheckRow.bound(
            "poincare", tag,
            sum(a ** 2 * (k * np.pi) ** 2 / (2 * l)
                for k, a in enumerate(amps, start=1)),
            sum(a ** 2 * (k * np.pi) ** 4 / (4 * l)
                for k, a in enumerate(amps, start=1)),
            DEFAULT_SLACK))
        load2 = random_load(grid, rng)
        meas = MeasurementSeries(*kernel.outputs(
            random_load(grid, rng).values))
        c = compute_constants(
            l, grid.final_time, coeffs.bounds,
            C_F=max(1.0, 10.0 * l2_norm_spacetime(load) ** 2),
            theta0_norm=series_l2_norm(meas.theta0, dt),
            thetaL_norm=series_l2_norm(meas.thetaL, dt))
        dF = l2_norm_spacetime(load - load2)
        e1 = evaluate_objective(load, meas, kernel)
        e2 = evaluate_objective(load2, meas, kernel)
        for name, lhs, rhs in (
                ("io_lipschitz_theta0", series_l2_norm(e1.p - e2.p, dt),
                 c.C_L * dF),
                ("io_lipschitz_thetaL", series_l2_norm(e1.q - e2.q, dt),
                 c.C_L * dF),
                ("misfit_lipschitz", abs(e1.J - e2.J), c.C_J * dF)):
            rows.append(CheckRow.bound(name, tag, lhs, rhs, DEFAULT_SLACK))
        p, dp = random_smooth_series(grid, rng)
        q, dq = random_smooth_series(grid, rng)
        rows += check_adjoint_estimates(
            solve_adjoint(coeffs, p, q, grid, system=system), coeffs, dp, dq,
            unit, scenario=tag)
        diff = compute_gradient(e1) - compute_gradient(e2)
        rows.append(CheckRow.bound(
            "gradient_lipschitz", tag,
            np.sqrt(spacetime_inner(diff, diff, grid)), c.L_G * dF,
            DEFAULT_SLACK))
    return rows


def _replay_mismatches(report, oracle):
    """The suite rows that differ from the replay's: in check, scenario,
    rhs or pass flag at all, in lhs by more than 1e-9 relative on the
    estimate rows and 1e-12 on the Lipschitz rows, and in any way on the
    Poincare rows."""
    assert len(report.rows) == len(oracle)
    bad = []
    for row, ref in zip(report.rows, oracle):
        if row.check.startswith(("apriori_", "adjoint_")):
            rtol = 1e-9
        elif row.check == "poincare":
            rtol = 0.0
        else:
            rtol = 1e-12
        if ((row.check, row.scenario, row.rhs, row.ok)
                != (ref.check, ref.scenario, ref.rhs, ref.ok)
                or abs(row.lhs - ref.lhs) > rtol * abs(ref.lhs)):
            bad.append((row, ref))
    return bad


@pytest.mark.parametrize("seed", range(4))
def test_suite_states_match_the_newmark_path(seed, random_case):
    """Every row of the Gram-series suite agrees with the replay of its
    draws through the Newmark solvers and the kernel's misfit and
    gradient, on a random grid with variable coefficients."""
    grid, coeffs, system, _ = random_case(seed)
    n = 3
    report = verify_inequality_suite(grid, coeffs, n_scenarios=n, seed=seed)
    oracle = _newmark_replay(grid, coeffs, system, n, seed)
    assert len(oracle) == n * EXPECTED_PER_SCENARIO
    assert _replay_mismatches(report, oracle) == []


def test_newmark_replay_rejects_a_wrong_load_basis(random_case,
                                                   monkeypatch):
    """Negative control: a suite whose load basis has cos(k pi t / T) in
    place of cos((k - 1) pi t / T) fails the replay, in lhs as well."""
    grid, coeffs, system, _ = random_case(0)
    oracle = _newmark_replay(grid, coeffs, system, 2, 0)
    k = np.arange(1, 5)[:, None]
    t, T = grid.times, grid.final_time
    monkeypatch.setattr(verify, "_load_histories", lambda grid: np.stack(
        [np.sin(k * np.pi * t / T), np.cos(k * np.pi * t / T)], axis=1))
    report = verify_inequality_suite(grid, coeffs, n_scenarios=2, seed=0)
    bad = _replay_mismatches(report, oracle)
    assert bad
    assert any(abs(row.lhs - ref.lhs) > 1e-9 * abs(ref.lhs)
               for row, ref in bad if row.check.startswith("apriori_"))


def mode_pulse_velocities(grid, coeffs, system):
    """The velocity responses, from t_1 on, to the four space modes as
    impulses at t_1, of one batched `solve_forward` pass: the suite's
    forward inputs."""
    pulses = np.zeros((4, grid.n_nodes, grid.n_times))
    pulses[:, :, 1] = verify._mode_shapes(grid)
    trajs = solve_forward(coeffs, [LoadField(f, grid) for f in pulses], grid,
                          system=system)
    return [traj.v[:, 1:] for traj in trajs]


def moment_series(grid):
    """The suite's adjoint inputs: the reversed basis moments, as p and
    as q, (2, 3, n_times)."""
    return np.stack([verify._moment_modes(grid)[:, ::-1]] * 2)


def whole_basis_states(velocities, series, n_fft):
    """Velocity states (n_in * n_per, n_dofs, n_times) of input series
    (n_in, n_per, n_times): series[i] convolves with velocities[i], the
    velocity response (n_dofs, n_times - 1) to a unit impulse at t_1,
    given from t_1 on, on every DOF at once: the states before the suite
    held them as factored coordinates."""
    n_in, n_per, n_times = series.shape
    states = np.empty((n_in, n_per, velocities[0].shape[0], n_times))
    for response, inputs, out in zip(velocities, series, states):
        spectrum = rfft(response, n_fft)[:, None]
        for x, state in zip(inputs, out):
            state[:] = forward.convolve_t1(spectrum, x[None], n_fft)
    return states.reshape(n_in * n_per, -1, n_times)


def factored_states(velocities, series, n_fft):
    """The velocity states C_k Y_k[p] of the suite's coordinates, in the
    order of `whole_basis_states`."""
    states = []
    for velocity, inputs in zip(velocities, series):
        C, Y = verify._coordinates(velocity, inputs, n_fft)
        states += [C @ y for y in Y]
    return np.array(states)


@pytest.mark.parametrize("seed", range(4))
def test_suite_states_match_the_solvers_on_every_dof(seed, random_case):
    """The basis states that the suite's Gram series are formed from, C_k
    times the coordinates of each response, agree with `solve_forward` of
    each basis load and `solve_adjoint` of each basis moment to 1e-9
    relative on every reduced DOF and instant, on variable
    coefficients."""
    grid, coeffs, system, _ = random_case(seed)
    n_fft = forward.impulse_kernel(system, grid).n_fft
    rates = factored_states(mode_pulse_velocities(grid, coeffs, system),
                            verify._load_histories(grid), n_fft)
    pairs = []
    for rate, c in zip(rates, np.eye(8)):
        ref = solve_forward(coeffs, verify._modal_load(grid, c), grid,
                            system=system)
        pairs += [(rate, ref.v), (cumtrapz(rate, grid.dt), ref.u)]

    velocities = forward.end_rotation_responses(system, grid)[1]
    rates = factored_states(velocities, moment_series(grid), n_fft)
    modes = verify._moment_modes(grid)
    zero = np.zeros(grid.n_times)
    for rate, (p, q) in zip(rates, [(m, zero) for m in modes]
                            + [(zero, m) for m in modes]):
        ref = solve_adjoint(coeffs, p, q, grid, system=system)
        pairs += [(-rate[:, ::-1], ref.phi_t),
                  (cumtrapz(rate, grid.dt)[:, ::-1], ref.phi)]
    assert len(pairs) == 2 * (8 + 6)
    for a, b in pairs:
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))


def whole_gram_series(ab, X):
    """G(t)[i, j] = x_i(t)' A x_j(t), (n_times, n_basis, n_basis), of
    whole states X (n_basis, n_dofs, n_times), each A x_i formed first."""
    gram = np.empty((X.shape[2], len(X), len(X)))
    for i, x in enumerate(X):
        gram[:, i] = np.einsum("dt,jdt->tj", band_product(ab, x), X)
    return gram


def whole_norm_bases(velocities, series, n_fft, unit, dt, traces):
    """`verify._norm_bases` on the whole basis states."""
    M1, K1 = unit
    X = whole_basis_states(velocities, series, n_fft)
    U = cumtrapz(X, dt)
    grams = (whole_gram_series(M1, X), whole_gram_series(K1, U),
             whole_gram_series(K1, X))
    return grams, [line for dof in traces for line in (U[:, dof], X[:, dof])]


@pytest.mark.parametrize("seed", [4, 10, 18, 0, 2, 3])
def test_factored_gram_series_match_the_whole_states(seed, random_case):
    """The Gram series and the trace lines formed from factored
    coordinates equal those of the whole states to 1e-12 relative, for
    the forward and the adjoint bases."""
    grid, coeffs, system, _ = random_case(seed)
    unit = assembly.unit_norm_matrices(grid)
    n_fft = forward.impulse_kernel(system, grid).n_fft
    for velocities, series, traces in (
            (mode_pulse_velocities(grid, coeffs, system),
             verify._load_histories(grid),
             (system.theta0_dof, system.thetaL_dof)),
            (list(forward.end_rotation_responses(system, grid)[1]),
             moment_series(grid), ())):
        whole = whole_norm_bases(velocities, series, n_fft, unit, grid.dt,
                                 traces)
        factored = verify._norm_bases(velocities, series, n_fft, unit,
                                      grid.dt, traces)
        assert velocities == []
        assert len(factored[1]) == len(whole[1]) == 2 * len(traces)
        for a, b in zip(itertools.chain(*factored),
                        itertools.chain(*whole)):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_suite_cost_does_not_grow_with_scenarios(small_grid, small_coeffs,
                                                 count_calls, monkeypatch):
    """The suite builds its bases once: one kernel, 2 Newmark passes, and
    the same kernel outputs, kernel adjoints, convolutions and quadratic
    forms for 1 scenario as for 20, counted at every import site."""
    calls = count_calls(forward.impulse_kernel, forward.newmark_integrate,
                        forward.convolve_t1, forward.quadratic_forms)

    def counted(method):
        def wrapper(*args, **kwargs):
            calls[method.__name__] += 1
            return method(*args, **kwargs)
        return wrapper

    for name in ("outputs", "adjoint"):
        monkeypatch.setattr(forward.ImpulseKernel, name,
                            counted(getattr(forward.ImpulseKernel, name)))
    counts = []
    for n in (1, 20):
        calls.clear()
        verify_inequality_suite(small_grid, small_coeffs, n_scenarios=n)
        counts.append(collections.Counter(calls))
    assert counts[0] == counts[1]
    assert counts[0]["impulse_kernel"] == 1
    assert counts[0]["newmark_integrate"] == 2


def test_suite_memory_is_one_pass_and_the_kernel():
    """At 32x256 the traced peak of `audit_operators` and the suite stays
    within the four-mode pulse pass (the pulse loads, their forces and
    the u and v of four cases) plus the kernel's spectra: no basis state
    is held whole, and the phases do not overlap."""
    grid = SpaceTimeGrid(1.0, 1.0, 32, 256)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.1,
                                     r=0.8, kappa=0.02)
    n_nodes, n_times = grid.n_nodes, grid.n_times
    n_dofs = assembly.assemble(grid, coeffs).n_dofs
    pulse_pass = 8 * 4 * n_times * (n_nodes + n_dofs + 2 * n_dofs)
    n_freq = forward.kernel_fft_length(grid) // 2 + 1
    kernel = 16 * 2 * n_freq * (n_nodes + n_nodes - 2)
    tracemalloc.start()
    try:
        verify_inequality_suite(grid, coeffs, n_scenarios=2,
                                operators=verify.audit_operators(grid,
                                                                 coeffs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pulse_pass + kernel


def test_lipschitz_bounds_use_the_scenario_constants(small_grid,
                                                     small_coeffs):
    """Replays the draws of scenario 0: C_L, C_J with the data norms and
    L_G of `compute_constants`, times ||F1 - F2||."""
    report = verify_inequality_suite(small_grid, small_coeffs,
                                     n_scenarios=1, seed=3)
    rng = np.random.default_rng(3)
    load = random_load(small_grid, rng)
    rng.normal(size=3)
    load2 = random_load(small_grid, rng)
    truth = random_load(small_grid, rng)
    system = assembly.assemble(small_grid, small_coeffs)
    theta0, thetaL = forward.impulse_kernel(system, small_grid).outputs(
        truth.values)
    c = compute_constants(
        small_grid.length, small_grid.final_time, small_coeffs.bounds,
        C_F=max(1.0, 10.0 * l2_norm_spacetime(load) ** 2),
        theta0_norm=series_l2_norm(theta0, small_grid.dt),
        thetaL_norm=series_l2_norm(thetaL, small_grid.dt))
    dF = l2_norm_spacetime(load - load2)
    rhs = {r.check: r.rhs for r in report.rows}
    assert rhs["io_lipschitz_theta0"] == rhs["io_lipschitz_thetaL"]
    assert rhs["io_lipschitz_theta0"] == pytest.approx(c.C_L * dF,
                                                       rel=1e-14)
    assert rhs["misfit_lipschitz"] == pytest.approx(c.C_J * dF, rel=1e-14)
    assert rhs["gradient_lipschitz"] == pytest.approx(c.L_G * dF,
                                                      rel=1e-14)
