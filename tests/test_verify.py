import collections
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.fft import rfft

from beamload import adjoint, assembly, forward, verify
from beamload.adjoint import (adjoint_series, check_adjoint_estimates,
                              solve_adjoint)
from beamload.constants import compute_constants
from beamload.forward import (apriori_series, check_apriori_estimates,
                              cumtrapz, solve_forward)
from beamload.model import (DEFAULT_SLACK, CheckRow, CoefficientSet,
                            LoadField, MeasurementSeries, SpaceTimeGrid,
                            l2_norm_spacetime, series_l2_norm,
                            spacetime_inner, time_inner, trapezoid_weights)
from beamload.objective import compute_gradient, evaluate_objective
from beamload.verify import duality_checks, verify_inequality_suite

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
    load = verify._modal_load(small_grid, rng.normal(size=8),
                              (verify._mode_shapes(small_grid),
                               verify._load_histories(small_grid)))
    assert l2_norm_spacetime(load) > 0
    y, dy = verify._moment(rng.normal(size=3),
                           verify._moment_factors(small_grid))
    assert y[0] == 0.0              # vanishes at t = 0 by construction
    dt = small_grid.dt
    fd = np.gradient(y, dt)
    interior = slice(2, -2)
    assert np.allclose(fd[interior], dy[interior], atol=5e-2 * np.max(
        np.abs(dy)))


@pytest.mark.parametrize("seed", range(10))
def test_modal_load_is_its_sum_of_modes_bit_for_bit(seed, random_case,
                                                    modal_load_by_mode):
    grid = random_case(seed)[0]
    c = np.random.default_rng(seed).normal(size=8) * 10.0 ** (seed - 5)
    factors = verify._mode_shapes(grid), verify._load_histories(grid)
    assert np.array_equal(verify._modal_load(grid, c, factors).values,
                          modal_load_by_mode(grid, c))


def test_suite_assembly_does_not_grow_with_scenarios(small_grid,
                                                     small_coeffs,
                                                     count_calls):
    """From no kept beam, the system, the unit-norm matrices and the
    impulse kernel are built once per call, and the Newmark passes do not
    grow with the scenarios: the space modes' and the end rotations',
    which also builds the kernel.  A second call on the beam builds
    none of them."""
    calls = count_calls(assembly.assemble, assembly.unit_norm_matrices,
                        forward.impulse_kernel, forward.newmark_integrate)
    counts = []
    for n in (1, 3):
        forward._beam_kernels.clear()
        calls.clear()
        verify_inequality_suite(small_grid, small_coeffs, n_scenarios=n)
        counts.append(dict(calls))
        calls.clear()
        verify_inequality_suite(small_grid, small_coeffs, n_scenarios=n)
        assert sum(calls.values()) == 0
    assert counts[0] == counts[1]
    assert counts[0] == {"assemble": 1, "unit_norm_matrices": 1,
                         "impulse_kernel": 1, "newmark_integrate": 2}


def _newmark_replay(grid, coeffs, system, n_scenarios, seed, draws,
                    rows_of_one):
    """The suite's rows from its replayed draws (load, Poincare amplitudes,
    load2, truth, p, q per scenario), made by the `draws` fixture: the
    estimates on `solve_forward` and `solve_adjoint` states, each a batch
    of one, and the Lipschitz rows on `evaluate_objective` and
    `compute_gradient` of the impulse kernel."""
    rng = np.random.default_rng(seed)
    kernel = forward.impulse_kernel(system, grid)
    unit = assembly.unit_norm_matrices(grid)
    l, dt = grid.length, grid.dt
    rows = []
    for s in range(n_scenarios):
        tag = f"s{s:02d}"
        load = draws.load(grid, rng)
        rows += rows_of_one(
            check_apriori_estimates,
            apriori_series(solve_forward(coeffs, load, grid, system=system),
                           unit), grid, coeffs,
            l2_norm_spacetime(load) ** 2, tag=tag)
        amps = rng.normal(size=3)
        rows.append(CheckRow.bound(
            "poincare", tag,
            sum(a ** 2 * (k * np.pi) ** 2 / (2 * l)
                for k, a in enumerate(amps, start=1)),
            sum(a ** 2 * (k * np.pi) ** 4 / (4 * l)
                for k, a in enumerate(amps, start=1)),
            DEFAULT_SLACK))
        load2 = draws.load(grid, rng)
        meas = MeasurementSeries(*kernel.outputs(
            draws.load(grid, rng).values))
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
        p, dp = draws.moment(grid, rng)
        q, dq = draws.moment(grid, rng)
        rows += rows_of_one(
            check_adjoint_estimates,
            adjoint_series(solve_adjoint(coeffs, p, q, grid, system=system),
                           unit), grid, coeffs, dp, dq, tag=tag)
        diff = compute_gradient(e1) - compute_gradient(e2)
        rows.append(CheckRow.bound(
            "gradient_lipschitz", tag,
            np.sqrt(spacetime_inner(diff, diff, grid)), c.L_G * dF,
            DEFAULT_SLACK))
    return rows


def _replay_mismatches(report, oracle):
    """The suite rows that differ from the replay's: in check, scenario
    or pass flag at all, in rhs by more than 1e-13 relative (the suite
    takes the load norms from its load Gram, the replay from the nodal
    loads), in lhs by more than 1e-9 relative on the estimate rows and
    1e-12 on the Lipschitz rows, and in any way on the Poincare rows."""
    assert len(report.rows) == len(oracle)
    bad = []
    for row, ref in zip(report.rows, oracle):
        if row.check.startswith(("apriori_", "adjoint_")):
            rtol = 1e-9
        elif row.check == "poincare":
            rtol = 0.0
        else:
            rtol = 1e-12
        if ((row.check, row.scenario, row.ok)
                != (ref.check, ref.scenario, ref.ok)
                or abs(row.rhs - ref.rhs) > 1e-13 * abs(ref.rhs)
                or abs(row.lhs - ref.lhs) > rtol * abs(ref.lhs)):
            bad.append((row, ref))
    return bad


@pytest.mark.parametrize("seed", range(4))
def test_suite_states_match_the_newmark_path(seed, random_case, draws,
                                             rows_of_one):
    """Every row of the Gram-series suite agrees with the replay of its
    draws through the Newmark solvers and the kernel's misfit and
    gradient, on a random grid with variable coefficients."""
    grid, coeffs, system, _ = random_case(seed)
    n = 3
    report = verify_inequality_suite(grid, coeffs, n_scenarios=n, seed=seed)
    oracle = _newmark_replay(grid, coeffs, system, n, seed, draws,
                             rows_of_one)
    assert len(oracle) == n * EXPECTED_PER_SCENARIO
    assert _replay_mismatches(report, oracle) == []


def test_newmark_replay_rejects_a_wrong_load_basis(random_case, draws,
                                                   rows_of_one, monkeypatch):
    """Negative control: a suite whose load basis has cos(k pi t / T) in
    place of cos((k - 1) pi t / T) fails the replay, in lhs as well."""
    grid, coeffs, system, _ = random_case(0)
    oracle = _newmark_replay(grid, coeffs, system, 2, 0, draws, rows_of_one)
    k = np.arange(1, 5)[:, None]
    t, T = grid.times, grid.final_time
    monkeypatch.setattr(verify, "_load_histories", lambda grid: np.stack(
        [np.sin(k * np.pi * t / T), np.cos(k * np.pi * t / T)], axis=1))
    report = verify_inequality_suite(grid, coeffs, n_scenarios=2, seed=0)
    bad = _replay_mismatches(report, oracle)
    assert bad
    assert any(abs(row.lhs - ref.lhs) > 1e-9 * abs(ref.lhs)
               for row, ref in bad if row.check.startswith("apriori_"))


def _duality_replay(grid, kernel, n, seed, tol, draws):
    """`duality_checks`' rows from its draws replayed one triple at a
    time through the `draws` fixture and the kernel."""
    rng = np.random.default_rng(seed)
    rows = []
    for s in range(n):
        dF = draws.load(grid, rng)
        p, _ = draws.moment(grid, rng)
        q, _ = draws.moment(grid, rng)
        theta0, thetaL = kernel.outputs(dF.values)
        lhs = time_inner(p, theta0, grid.dt) + time_inner(q, thetaL, grid.dt)
        rhs = spacetime_inner(dF.values, kernel.adjoint(p, q), grid)
        rows.append(CheckRow.bound(
            "duality", f"s{s:02d}",
            abs(lhs - rhs) / (abs(rhs) + forward.EPS_FLOOR), tol))
    return tuple(rows)


def _fd_replay(grid, kernel, n, seed, tol, draws):
    """`gradient_fd_checks`' rows from its draws replayed one load at a
    time through the `draws` fixture, `evaluate_objective` and
    `compute_gradient`."""
    rng = np.random.default_rng(seed)
    meas = MeasurementSeries(*kernel.outputs(draws.load(grid, rng).values))
    F = draws.load(grid, rng)
    grad = compute_gradient(evaluate_objective(F, meas, kernel))
    rows = []
    for s in range(n):
        D = draws.load(grid, rng)
        eps = 1e-4 * (l2_norm_spacetime(F) / l2_norm_spacetime(D))
        Jp = evaluate_objective(LoadField(F.values + eps * D.values, grid),
                                meas, kernel).J
        Jm = evaluate_objective(LoadField(F.values - eps * D.values, grid),
                                meas, kernel).J
        fd = (Jp - Jm) / (2 * eps)
        an = spacetime_inner(grad, D.values, grid)
        rows.append(CheckRow.bound(
            "gradient_fd", f"s{s:02d}",
            abs(fd - an) / max(abs(fd), forward.EPS_FLOOR), tol))
    return tuple(rows)


@pytest.mark.parametrize("seed", range(6))
def test_duality_and_fd_rows_are_their_draws_replayed(seed, random_case,
                                                      draws):
    """The duality and finite-difference rows equal, with ==, their draws
    replayed one at a time: making the factors of the loads and moments
    and the quadrature weights once per call moves no bit.  These rows
    decide which `beamload verify` seeds fail on a coarse grid."""
    grid, coeffs, system, _ = random_case(seed)
    kernel = forward.impulse_kernel(system, grid)
    assert (duality_checks(grid, coeffs, n_triples=4, seed=seed,
                           kernel=kernel).rows
            == _duality_replay(grid, kernel, 4, seed, 1e-3, draws))
    assert (verify.gradient_fd_checks(grid, coeffs, n_directions=4,
                                      seed=seed, kernel=kernel).rows
            == _fd_replay(grid, kernel, 4, seed, 5e-3, draws))


def mode_pulse_velocities(grid, coeffs, system):
    """The velocity responses, from t_1 on, to the four space modes as
    impulses at t_1, of one batched `solve_forward` pass, side by side
    (n_dofs, 4 (n_times - 1)): the suite's forward inputs."""
    pulses = np.zeros((4, grid.n_nodes, grid.n_times))
    pulses[:, :, 1] = verify._mode_shapes(grid)
    trajs = solve_forward(coeffs, [LoadField(f, grid) for f in pulses], grid,
                          system=system)
    return np.hstack([traj.v[:, 1:] for traj in trajs])


def end_rotation_velocities(grid, system):
    """The velocity responses of `forward.end_rotation_responses`, side
    by side (n_dofs, 2 (n_times - 1)): the suite's adjoint inputs."""
    return np.hstack(forward.end_rotation_responses(system, grid)[1])


def moment_series(grid):
    """The suite's adjoint inputs: the reversed basis moments, as p and
    as q, (2, 3, n_times)."""
    return np.stack([verify._moment_factors(grid)[0][:, ::-1]] * 2)


def whole_basis_states(velocity, series, n_fft):
    """Velocity states (n_in * n_per, n_dofs, n_times) of input series
    (n_in, n_per, n_times): series[i] convolves with the i-th of the
    velocity responses (n_dofs, n_times - 1) to unit impulses at t_1,
    given from t_1 on and held side by side in `velocity`, on every DOF
    at once: the states before the suite held them as factored
    coordinates."""
    n_in, n_per, n_times = series.shape
    states = np.empty((n_in, n_per, len(velocity), n_times))
    for response, inputs, out in zip(np.hsplit(velocity, n_in), series,
                                     states):
        spectrum = rfft(response, n_fft)[:, None]
        for x, state in zip(inputs, out):
            state[:] = forward.convolve_t1(spectrum, x[None], n_fft)
    return states.reshape(n_in * n_per, -1, n_times)


def factored_states(velocity, series, n_fft):
    """The velocity states C Y[i] of the suite's coordinates, in the
    order of `whole_basis_states`."""
    C, Y = verify._coordinates(velocity, series, n_fft)
    return np.array([C @ y for y in Y])


@pytest.mark.parametrize("seed", range(4))
def test_suite_states_match_the_solvers_on_every_dof(seed, random_case,
                                                     modal_load_by_mode):
    """The basis states that the suite's Gram series are formed from, C
    times the coordinates of each input, agree with `solve_forward` of
    each basis load and `solve_adjoint` of each basis moment to 1e-9
    relative on every reduced DOF and instant, on variable
    coefficients."""
    grid, coeffs, system, _ = random_case(seed)
    n_fft = forward.impulse_kernel(system, grid).n_fft
    rates = factored_states(mode_pulse_velocities(grid, coeffs, system),
                            verify._load_histories(grid), n_fft)
    pairs = []
    for rate, c in zip(rates, np.eye(8)):
        ref = solve_forward(coeffs, LoadField(modal_load_by_mode(grid, c),
                                              grid), grid, system=system)
        pairs += [(rate, ref.v), (cumtrapz(rate, grid.dt), ref.u)]

    rates = factored_states(end_rotation_velocities(grid, system),
                            moment_series(grid), n_fft)
    modes = verify._moment_factors(grid)[0]
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


def whole_gram_series(A, X):
    """G(t)[i, j] = x_i(t)' A x_j(t), (n_times, n_basis, n_basis), of
    whole states X (n_basis, n_dofs, n_times) and a dense A, each A x_i
    formed first, in the precision of A and X."""
    gram = np.empty((X.shape[2], len(X), len(X)), dtype=X.dtype)
    for i, x in enumerate(X):
        gram[:, i] = np.einsum("dt,jdt->tj", A @ x, X)
    return gram


def whole_norm_bases(velocity, series, n_fft, unit, dt, traces, dense):
    """`verify._norm_bases` on the whole basis states, in long double:
    in float64 the oracle's own round-off reaches 8.6e-13 of the largest
    entry (the u_xx Gram on `random_case` seed 4), most of the test's
    1e-12 bound."""
    M1, K1 = (dense(ab).astype(np.longdouble) for ab in unit)
    X = whole_basis_states(velocity, series, n_fft).astype(np.longdouble)
    U = cumtrapz(X, dt)
    grams = (whole_gram_series(M1, X), whole_gram_series(K1, U),
             whole_gram_series(K1, X))
    return grams, [line for dof in traces for line in (U[:, dof], X[:, dof])]


@pytest.mark.parametrize("seed", [4, 10, 18, 0, 2, 3])
def test_factored_gram_series_match_the_whole_states(seed, random_case,
                                                      dense):
    """The Gram series and the trace lines formed from factored
    coordinates equal those of the whole states to 1e-12 relative, for
    the forward and the adjoint bases."""
    grid, coeffs, system, _ = random_case(seed)
    unit = assembly.unit_norm_matrices(grid)
    n_fft = forward.impulse_kernel(system, grid).n_fft
    for velocity, series, traces in (
            (mode_pulse_velocities(grid, coeffs, system),
             verify._load_histories(grid),
             (system.theta0_dof, system.thetaL_dof)),
            (end_rotation_velocities(grid, system), moment_series(grid),
             ())):
        whole = whole_norm_bases(velocity, series, n_fft, unit, grid.dt,
                                 traces, dense)
        factored = verify._norm_bases(velocity, series, n_fft, unit,
                                      grid.dt, traces)
        assert len(factored[1]) == len(whole[1]) == 2 * len(traces)
        for a, b in zip(itertools.chain(*factored),
                        itertools.chain(*whole)):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_suite_cost_does_not_grow_with_scenarios(small_grid, small_coeffs,
                                                 count_calls, monkeypatch):
    """From no kept beam, the suite builds its bases once: one kernel, 2
    Newmark passes, 4 factorizations, one per audit pass and per kernel
    operator, and the same kernel outputs, kernel adjoints, convolutions
    and quadratic forms for 1 scenario as for 20, counted at every import
    site.  A second call on the beam makes none of them."""
    calls = count_calls(forward.impulse_kernel, forward.newmark_integrate,
                        forward.convolve_t1, forward.quadratic_forms,
                        forward._factor_rows)

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
        forward._beam_kernels.clear()
        calls.clear()
        verify_inequality_suite(small_grid, small_coeffs, n_scenarios=n)
        counts.append(collections.Counter(calls))
        calls.clear()
        verify_inequality_suite(small_grid, small_coeffs, n_scenarios=n)
        assert sum(calls.values()) == 0, calls
    assert counts[0] == counts[1]
    assert counts[0]["impulse_kernel"] == 1
    assert counts[0]["newmark_integrate"] == 2
    assert counts[0]["_factor_rows"] == 4


def test_cold_suite_makes_the_load_factors_three_times(small_grid,
                                                        small_coeffs,
                                                        count_calls):
    """From no kept beam, the space modes and the load histories are made
    once by each of the three phases that read them: the forward bases,
    the output bases for all 8 basis loads, and the load Gram.  A second
    call on the beam makes none."""
    calls = count_calls(verify._mode_shapes, verify._load_histories)
    verify_inequality_suite(small_grid, small_coeffs, n_scenarios=2)
    assert calls == {"_mode_shapes": 3, "_load_histories": 3}
    calls.clear()
    verify_inequality_suite(small_grid, small_coeffs, n_scenarios=2)
    assert sum(calls.values()) == 0


def _audit_case():
    """The 32x256 grid and the coefficients of the suite's memory tests."""
    grid = SpaceTimeGrid(1.0, 1.0, 32, 256)
    return grid, CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.1,
                                         r=0.8, kappa=0.02)


def test_suite_memory_is_one_pass_and_the_kernel():
    """At 32x256 the traced peak of a suite call from no kept beam stays
    within the four-mode pulse pass (the pulse loads, their forces and
    the u and v of four cases) plus the kernel's spectra: no basis state
    is held whole, and the phases do not overlap."""
    grid, coeffs = _audit_case()
    n_nodes, n_times = grid.n_nodes, grid.n_times
    n_dofs = assembly.assemble(grid, coeffs).n_dofs
    pulse_pass = 8 * 4 * n_times * (n_nodes + n_dofs + 2 * n_dofs)
    n_freq = forward.kernel_fft_length(grid) // 2 + 1
    kernel = 16 * 2 * n_freq * (n_nodes + n_nodes - 2)
    tracemalloc.start()
    try:
        verify_inequality_suite(grid, coeffs, n_scenarios=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pulse_pass + kernel


def test_suite_keeps_only_the_kernel_and_the_bases():
    """After a suite call at 32x256 the traced memory still held is the
    beam's store: the kernel, the moment factors, the Gram series and
    trace lines of the 8 basis loads and the 6 basis moments, and the
    basis loads' outputs, gradient Gram and load Gram, within 64 KiB.
    No velocity, displacement or force history (128 KiB and more each)
    and no assembled system stays alive, and the audit does not hold the
    kernel a second time."""
    grid, coeffs = _audit_case()
    # the first call's imports and caches are not the store's
    verify_inequality_suite(grid, coeffs, n_scenarios=1)
    forward._beam_kernels.clear()
    tracemalloc.start()
    try:
        verify_inequality_suite(grid, coeffs, n_scenarios=2)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    (store,) = forward._beam_kernels.values()
    assert set(store) == {"kernel", "audit"}
    assert all(entry is not store["kernel"] for entry in store["audit"])
    n_nodes, n_times = grid.n_nodes, grid.n_times
    n_freq = forward.kernel_fft_length(grid) // 2 + 1
    r_out, r_adj = store["kernel"].rank
    kernel = 8 * (4 * n_freq * (r_out + r_adj) + n_nodes * r_out
                  + (n_nodes - 2) * r_adj + (r_out + r_adj) * r_adj)
    grams = 8 * 3 * n_times * (8 * 8 + 6 * 6)
    lines = 8 * 2 * 2 * 8 * n_times
    outputs = 8 * (8 * 2 * n_times + 2 * 8 * 8)
    moments = 8 * 2 * 3 * n_times
    assert current <= (kernel + moments + grams + lines + outputs
                       + 64 * 1024)


def test_audit_bases_are_read_only(small_grid, small_coeffs):
    """The kept moment factors, Gram series, trace lines, outputs,
    gradient Gram and load Gram are shared by every suite call on their
    beam, so no caller can write into them."""
    audit = verify.audit_operators(small_grid, small_coeffs)
    assert len(audit) == 6
    moments, forward_bases, adjoint_bases, *output_bases = audit
    assert len(moments) == 2 and len(output_bases) == 3
    for series in itertools.chain(moments, *forward_bases, *adjoint_bases,
                                  output_bases):
        with pytest.raises(ValueError, match="read-only"):
            series[...] = 0.0


def load_gram_error(grid, gram, rng):
    """The largest relative error of `gram` as the space-time Gram of the
    basis loads, over the squared norms of 4 formed `_modal_load`s and
    the norms of their 3 successive differences."""
    cs = rng.normal(size=(4, 8))
    factors = verify._mode_shapes(grid), verify._load_histories(grid)
    loads = [verify._modal_load(grid, c, factors) for c in cs]
    pairs = [(c @ gram @ c, l2_norm_spacetime(load) ** 2)
             for c, load in zip(cs, loads)]
    pairs += [(np.sqrt(d @ gram @ d), l2_norm_spacetime(a - b))
              for d, a, b in zip(cs[:-1] - cs[1:], loads, loads[1:])]
    return max(abs(ours - ref) / ref for ours, ref in pairs)


@pytest.mark.parametrize("seed", range(8))
def test_load_gram_gives_the_formed_loads_norms(seed, random_case):
    """The kept load Gram M gives the space-time norms of formed loads
    and of their differences, c' M c and sqrt(d' M d), to 1e-13
    relative.  Negative control: the M of the unweighted space Gram
    fails."""
    grid, coeffs, _, _ = random_case(seed)
    *_, kept = verify.audit_operators(grid, coeffs)
    rng = np.random.default_rng(seed)
    assert load_gram_error(grid, kept, rng) <= 1e-13
    shapes = verify._mode_shapes(grid)
    histories = verify._load_histories(grid).reshape(8, -1)
    w_t = trapezoid_weights(grid.n_times, grid.dt)
    unweighted = (np.kron(shapes @ shapes.T, np.ones((2, 2)))
                  * (histories * w_t @ histories.T))
    assert load_gram_error(grid, unweighted, rng) > 1e-13


@pytest.mark.parametrize("seed", range(3))
def test_batched_estimates_read_each_scenarios_series(seed, random_case,
                                                      rows_of_one):
    """The estimate checks on series with a leading scenario axis give,
    per scenario tag, the rows of a call on that scenario's own series,
    to 1e-14: the LinfL2 rows read its largest value, the others its
    trapezoid integral, and each bound scales with that scenario's F^2
    or ||p'||^2 + ||q'||^2."""
    grid, coeffs, _, rng = random_case(seed)
    n, wt = 3, trapezoid_weights(grid.n_times, grid.dt)
    tags = [f"s{s:02d}" for s in range(n)]
    apriori = rng.uniform(size=(7, n, grid.n_times))
    adjoint = rng.uniform(size=(3, n, grid.n_times))
    dp, dq = rng.normal(size=(2, n, grid.n_times))
    F_sq = rng.uniform(1.0, 2.0, size=n)
    batched = zip(
        check_apriori_estimates(apriori, grid, coeffs, F_sq, DEFAULT_SLACK,
                                tags),
        check_adjoint_estimates(adjoint, grid, coeffs, dp, dq, DEFAULT_SLACK,
                                tags))
    for s, (apriori_rows, adjoint_rows) in enumerate(batched):
        ones = (rows_of_one(check_apriori_estimates, apriori[:, s], grid,
                            coeffs, F_sq[s], tag=tags[s])
                + rows_of_one(check_adjoint_estimates, adjoint[:, s], grid,
                              coeffs, dp[s], dq[s], tag=tags[s]))
        # the series each row reads, in row order: an LinfL2 and an L2L2
        # row of each norm, and the squares of the four traces
        read = ([x for x in apriori[:3, s] for _ in (0, 1)]
                + list(apriori[3:, s] ** 2)
                + [x for x in adjoint[:, s] for _ in (0, 1)])
        rows = apriori_rows + adjoint_rows
        assert len(rows) == len(ones) == len(read) == 16
        for row, one, x in zip(rows, ones, read):
            assert (row.check, row.scenario, row.ok) == (one.check, tags[s],
                                                         one.ok)
            ref = np.max(x) if row.check.endswith("LinfL2") else wt @ x
            assert row.lhs == pytest.approx(ref, rel=1e-14)
            assert one.lhs == pytest.approx(ref, rel=1e-14)
            assert row.rhs == pytest.approx(one.rhs, rel=1e-14)


def test_lipschitz_bounds_use_the_scenario_constants(small_grid,
                                                     small_coeffs, draws):
    """Replays the draws of scenario 0: C_L, C_J with the data norms and
    L_G of `compute_constants`, times ||F1 - F2||."""
    report = verify_inequality_suite(small_grid, small_coeffs,
                                     n_scenarios=1, seed=3)
    rng = np.random.default_rng(3)
    load = draws.load(small_grid, rng)
    rng.normal(size=3)
    load2 = draws.load(small_grid, rng)
    truth = draws.load(small_grid, rng)
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
