import numpy as np
import pytest
from scipy.linalg import cholesky_banded
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrs

from beamload.assembly import assemble, unit_norm_matrices
from beamload.constants import compute_constants
from beamload.errors import DivergenceError
from beamload.forward import (apriori_series, band_product,
                              check_apriori_estimates, cumtrapz,
                              energy_residual, newmark_integrate,
                              solve_forward)
from beamload.measurements import manufactured_case
from beamload.model import (CoefficientSet, LoadField, SpaceTimeGrid,
                            l2_norm_spacetime)


def test_newmark_scalar_oscillator_oracle():
    # M u'' + K u = 1 from rest with M = K = 1: u(t) = 1 - cos t
    T, n = 2 * np.pi, 2000
    dt = T / n
    forces = np.ones((n + 1, 1))
    result = newmark_integrate(np.eye(1), np.zeros((1, 1)), np.eye(1),
                               forces, dt)
    # displacement and velocity only: no acceleration history is kept
    assert isinstance(result, tuple) and len(result) == 2
    u, v = result
    assert u.shape == v.shape == (1, n + 1)
    t = np.linspace(0, T, n + 1)
    assert np.max(np.abs(u[0] - (1 - np.cos(t)))) < 1e-4
    assert np.max(np.abs(v[0] - np.sin(t))) < 1e-4
    assert u[0, 0] == 0.0 and v[0, 0] == 0.0


def textbook_newmark(M, C, K, forces, dt, gamma=0.5, beta=0.25):
    """One load case (n_times, n_dofs) of the Newmark-beta family
    (Newmark, J. Eng. Mech. Div. ASCE 85, 1959) in its textbook
    effective-stiffness form, with all eight step constants, on the band
    calls of `newmark_integrate`.  The reference of its step."""
    a0 = 1.0 / (beta * dt ** 2)
    a1 = gamma / (beta * dt)
    a2 = 1.0 / (beta * dt)
    a3 = 1.0 / (2.0 * beta) - 1.0
    a4 = gamma / beta - 1.0
    a5 = dt / 2.0 * (gamma / beta - 2.0)
    a6 = dt * (1.0 - gamma)
    a7 = gamma * dt
    kd = M.shape[0] - 1
    cb_eff = cholesky_banded(K + a0 * M + a1 * C)
    u = np.zeros(forces.shape[::-1])
    v = np.zeros(forces.shape[::-1])
    ak = dpbtrs(cholesky_banded(M), forces[0])[0]
    for k in range(forces.shape[0] - 1):
        uk, vk = u[:, k], v[:, k]
        rhs = (forces[k + 1]
               + dsbmv(kd, 1.0, M, a0 * uk + a2 * vk + a3 * ak)
               + dsbmv(kd, 1.0, C, a1 * uk + a4 * vk + a5 * ak))
        un = dpbtrs(cb_eff, rhs)[0]
        an = a0 * (un - uk) - a2 * vk - a3 * ak
        u[:, k + 1], v[:, k + 1] = un, vk + a6 * ak + a7 * an
        ak = an
    return u, v


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_cases", [1, 2, 3])
def test_newmark_step_is_textbook_average_acceleration(seed, n_cases,
                                                       random_case):
    """The two-state step, with the acceleration eliminated, gives the
    textbook step's u and v to 1e-9 of their largest value, for every
    case of a batch on a random variable-coefficient grid."""
    grid, _, system, rng = random_case(seed)
    forces = rng.normal(size=(grid.n_times, n_cases, system.n_dofs))
    u, v = newmark_integrate(system.M, system.C, system.K, forces, grid.dt)
    for b in range(n_cases):
        ref_u, ref_v = textbook_newmark(system.M, system.C, system.K,
                                        forces[:, b], grid.dt)
        for ours, ref in ((u[b], ref_u), (v[b], ref_v)):
            assert np.max(np.abs(ours - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_newmark_rejects_non_finite_input():
    forces = np.ones((10, 1))
    forces[3, 0] = np.nan
    with pytest.raises(DivergenceError):
        newmark_integrate(np.eye(1), np.zeros((1, 1)), np.eye(1),
                          forces, 0.1)


def test_newmark_names_first_non_finite_step():
    # finite forces whose response overflows at step 5
    forces = np.zeros((10, 1))
    forces[5, 0] = 1e308
    with pytest.raises(DivergenceError, match="at step 5$"):
        newmark_integrate(1e-300 * np.eye(1), np.zeros((1, 1)),
                          1e-300 * np.eye(1), forces, 1.0)


@pytest.mark.parametrize("M,K,name", [(np.zeros((1, 1)), np.eye(1), "mass"),
                                       (np.eye(1), -np.eye(1) * 1e3,
                                        "effective")],
                         ids=["mass", "effective"])
def test_newmark_names_a_failed_factorization(M, K, name):
    """A band matrix that is not positive definite is a DivergenceError
    naming it, not LAPACK's error."""
    with pytest.raises(DivergenceError, match=f"^{name} matrix"):
        newmark_integrate(M, np.zeros((1, 1)), K, np.zeros((4, 1)), 0.1)


@pytest.mark.parametrize("seed", range(6))
def test_newmark_displacement_is_trapezoid_of_velocity(seed, random_case):
    """Average acceleration makes u_{k+1} = u_k + dt/2 (v_k + v_{k+1}), so
    a pass from rest gives u as the cumulative trapezoid of v to a few
    eps, for white-noise forces that are nonzero at t_0: the step forms
    v_{k+1} from u_{k+1} - u_k directly."""
    grid, _, system, rng = random_case(seed)
    forces = rng.normal(size=(grid.n_times, system.n_dofs))
    u, v = newmark_integrate(system.M, system.C, system.K, forces, grid.dt)
    assert np.max(np.abs(cumtrapz(v, grid.dt) - u)) <= 1e-14 * np.max(
        np.abs(u))


@pytest.mark.parametrize("seed", range(6))
def test_newmark_force_at_t0_is_the_alternating_train(seed, random_case):
    """A force f_0 at t_0 enters the first step as f_1 does, so it gives
    the u and v of the train f_0, -f_0, f_0, ... from t_1 on bit for bit:
    the identity `convolve_t1` folds the t_0 sample by."""
    grid, _, system, rng = random_case(seed)
    f0 = rng.normal(size=system.n_dofs)
    impulse = np.zeros((grid.n_times, system.n_dofs))
    impulse[0] = f0
    train = np.zeros_like(impulse)
    train[1::2], train[2::2] = f0, -f0
    bands = (system.M, system.C, system.K)
    for a, b in zip(newmark_integrate(*bands, impulse, grid.dt),
                    newmark_integrate(*bands, train, grid.dt)):
        assert np.array_equal(a, b)


def mfd_setup(n_el, n_st):
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=n_el,
                      n_steps=n_st)
    c = CoefficientSet.constant(g, rho_A=1.0, mu=0.1, T_r=0.2, r=1.0,
                                kappa=0.05)
    return g, c


def mfd_error(n_el, n_st):
    g, c = mfd_setup(n_el, n_st)
    load, exact_u, _ = manufactured_case(g, c)
    traj = solve_forward(c, load, g)
    w = traj.full_deflection()
    return float(np.max(np.abs(w - exact_u)) / np.max(np.abs(exact_u)))


def test_manufactured_solution_accuracy_and_convergence():
    coarse = mfd_error(16, 128)
    fine = mfd_error(32, 256)
    assert fine < 2e-3
    assert coarse / fine >= 3.5    # second order in space-time


def modal_error(modal_slopes, n_elements, n_steps, n, omega, mu,
                length=1.0, final_time=1.0):
    """The largest error of `solve_forward`'s two end slopes under the
    load sin(n pi x / l) sin(omega t), over the largest continuum slope
    of `modal_slopes`, on the `verify` coefficients with damping mu."""
    grid = SpaceTimeGrid(length, final_time, n_elements, n_steps)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=mu, T_r=0.1, r=0.8,
                                     kappa=0.02)
    shape = np.sin(n * np.pi * grid.nodes / length)
    load = LoadField(np.outer(shape, np.sin(omega * grid.times)), grid)
    outputs = solve_forward(coeffs, load, grid).outputs
    exact = modal_slopes(grid, coeffs, n, omega)
    scale = max(np.max(np.abs(theta)) for theta in exact)
    return max(np.max(np.abs(ours - theirs)) for ours, theirs in
               zip((outputs.theta0, outputs.thetaL), exact)) / scale


@pytest.mark.parametrize("n,omega,mu,length,final_time", [
    (1, 3.0, 0.05, 1.0, 1.0), (1, 9.0, 0.05, 1.0, 1.0),
    (2, 3.0, 0.05, 1.0, 1.0), (2, 9.0, 0.05, 1.0, 1.0),
    (1, 9.0, 0.0, 1.0, 1.0), (2, 9.0, 0.0, 1.0, 1.0),
    (2, 9.0, 0.05, 1.5, 0.8)])
def test_slopes_converge_to_the_modal_solution(n, omega, mu, length,
                                               final_time, modal_slopes):
    """The end slopes converge to the continuum solution of one excited
    mode at second order: each joint halving of h and dt, from 8x64 to
    32x256, divides the largest error by at least 3.5, as criterion 1
    asks, and at 32x256 it is below 5e-3 of the largest slope.  Unlike
    the manufactured t^2 history, the acceleration varies, and both
    damping terms and the tension act."""
    errors = [modal_error(modal_slopes, 8 * 2 ** j, 64 * 2 ** j, n, omega,
                          mu, length, final_time) for j in range(3)]
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5
    assert errors[2] <= 5e-3


def test_manufactured_outputs_match_end_slopes():
    g, c = mfd_setup(32, 256)
    load, _, exact = manufactured_case(g, c)
    traj = solve_forward(c, load, g)
    scale = np.max(np.abs(exact.theta0))
    assert np.max(np.abs(traj.outputs.theta0 - exact.theta0)) / scale < 5e-3
    assert np.max(np.abs(traj.outputs.thetaL - exact.thetaL)) / scale < 5e-3


def test_zero_load_gives_zero_trajectory(small_grid, small_coeffs):
    traj = solve_forward(small_coeffs, LoadField.zero(small_grid),
                         small_grid)
    assert np.all(traj.u == 0.0)
    assert np.all(traj.outputs.theta0 == 0.0)


def test_forward_solver_is_linear(small_grid, small_coeffs):
    rng = np.random.default_rng(7)
    shape = (small_grid.n_nodes, small_grid.n_times)
    F1 = LoadField(rng.normal(size=shape), small_grid)
    F2 = LoadField(rng.normal(size=shape), small_grid)
    u1 = solve_forward(small_coeffs, F1, small_grid).u
    u2 = solve_forward(small_coeffs, F2, small_grid).u
    F12 = LoadField(F1.values + F2.values, small_grid)
    u12 = solve_forward(small_coeffs, F12, small_grid).u
    scale = np.max(np.abs(u12))
    assert np.max(np.abs(u1 + u2 - u12)) / scale < 1e-10


def test_energy_identity_residual_shrinks_under_refinement():
    residuals = []
    for n_el, n_st in ((16, 128), (32, 256)):
        g, c = mfd_setup(n_el, n_st)
        load, _, _ = manufactured_case(g, c)
        traj = solve_forward(c, load, g)
        residuals.append(float(np.max(energy_residual(traj, c, load))))
    assert residuals[0] < 1e-3
    assert residuals[1] < residuals[0] / 2


def test_apriori_estimates_hold(small_grid, small_coeffs, rows_of_one):
    x = small_grid.nodes[:, None]
    t = small_grid.times[None, :]
    load = LoadField(np.sin(np.pi * x) * np.sin(np.pi * t)
                     + 0.3 * np.sin(2 * np.pi * x) * t, small_grid)
    traj = solve_forward(small_coeffs, load, small_grid)
    checks = rows_of_one(
        check_apriori_estimates,
        apriori_series(traj, unit_norm_matrices(small_grid)), small_grid,
        small_coeffs, l2_norm_spacetime(load) ** 2)
    assert len(checks) == 10
    failed = [c.check for c in checks if not c.ok]
    assert failed == []

    # every bound is F^2 times a closed form of `compute_constants`
    b = small_coeffs.bounds
    c = compute_constants(small_grid.length, small_grid.final_time, b)
    expected = {
        "ut_LinfL2": c.Ce_sq / b.rho0,
        "ut_L2L2": c.Ce_sq - 1.0,
        "uxx_LinfL2": c.Ce_sq / b.r0,
        "uxx_L2L2": b.rho0 / b.r0 * (c.Ce_sq - 1.0),
        "uxxt_LinfL2": c.Ce_sq / b.kappa0,
        "uxxt_L2L2": b.rho0 / b.kappa0 * (c.Ce_sq - 1.0),
        "trace_ux0": c.C1_sq / b.r0,
        "trace_uxt0": c.C1_sq / b.kappa0,
        "trace_uxL": c.C1_sq / b.r0,
        "trace_uxtL": c.C1_sq / b.kappa0,
    }
    F_sq = l2_norm_spacetime(load) ** 2
    assert {r.check: r.rhs for r in checks} == pytest.approx(
        {"apriori_" + k: v * F_sq for k, v in expected.items()}, rel=1e-14)


def test_free_vibration_dissipates_energy(dense):
    g = SpaceTimeGrid(length=1.0, final_time=2.0, n_elements=16,
                      n_steps=400)
    c = CoefficientSet.constant(g, rho_A=1.0, mu=0.2, T_r=0.0, r=1.0,
                                kappa=0.02)
    x = g.nodes[:, None]
    t = g.times[None, :]
    gate = np.where(t < 1.0, np.sin(np.pi * t) ** 2, 0.0)
    load = LoadField(np.sin(np.pi * x) * gate, g)
    traj = solve_forward(c, load, g)
    sys_ = traj.system
    stored = (np.einsum("ik,ij,jk->k", traj.v, dense(sys_.M), traj.v)
              + np.einsum("ik,ij,jk->k", traj.u, dense(sys_.K_r), traj.u)
              + np.einsum("ik,ij,jk->k", traj.u, dense(sys_.K_T), traj.u))
    free = stored[t[0] > 1.0]
    assert np.all(np.diff(free) <= 1e-12 * stored.max())


@pytest.mark.parametrize("n_elements", [4, 5, 16, 64])
def test_band_storage_reproduces_upper_triangle(n_elements, dense):
    # the bands Newmark factors hold the upper triangle in LAPACK's
    # layout: the banded Cholesky factor U of M and of the effective
    # matrix K + a0 M + a1 C, summed band by band, gives U'U = A
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=n_elements,
                      n_steps=64)
    c = CoefficientSet.constant(g, rho_A=1.0, mu=0.05, T_r=0.1, r=0.8,
                                kappa=0.02)
    s = assemble(g, c)
    K_eff = (s.K_T + s.K_r + 4.0 / g.dt ** 2 * s.M
             + 2.0 / g.dt * (s.C_ext + s.K_kappa))
    for ab in (s.M, K_eff):
        U = np.triu(dense(cholesky_banded(ab)))
        A = dense(ab)
        assert np.allclose(U.T @ U, A, rtol=1e-12,
                           atol=1e-13 * np.max(np.abs(A)))


def test_newmark_reads_bandwidth_from_storage():
    # the same matrices stored with two extra all-zero top rows (a band of
    # width 5) give the same trajectory: the bandwidth comes from the
    # storage and is never cut off
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8,
                      n_steps=64)
    c = CoefficientSet.constant(g, rho_A=1.0, mu=0.05, T_r=0.1, r=0.8,
                                kappa=0.02)
    s = assemble(g, c)
    forces = np.random.default_rng(3).normal(size=(g.n_times, s.n_dofs))
    bands = (s.M, s.C, s.K)
    u4 = newmark_integrate(*bands, forces, g.dt)[0]
    wide = [np.vstack([np.zeros((2, s.n_dofs)), ab]) for ab in bands]
    u6 = newmark_integrate(*wide, forces, g.dt)[0]
    assert np.max(np.abs(u6 - u4)) <= 1e-14 * np.max(np.abs(u4))


def dia_product(ab, X):
    """A X along the first axis of X by scipy.sparse's DIA product, the
    reference of `band_product`.  The band rows are the upper diagonals,
    offsets k..0, of the DIA array; each lower diagonal is its mirror
    moved left."""
    from scipy.sparse import dia_array
    k, n = ab.shape[0] - 1, ab.shape[1]
    data = np.vstack([ab] + [np.roll(ab[k - d], -d) for d in range(1, k + 1)])
    A = dia_array((data, np.arange(k, -k - 1, -1)), shape=(n, n))
    return (A @ X.reshape(n, -1)).reshape(X.shape)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_band_product_is_the_dia_product_bit_for_bit(k, seed):
    # random diagonals over eleven decades, so that any change in the
    # order of a row's additions shows; the unused corner entries are
    # random too, and must not be read
    rng = np.random.default_rng(100 * k + seed)
    # the smallest and the largest n, then random ones between
    n = (2 * k + 1, 300)[seed] if seed < 2 else int(rng.integers(2 * k + 1,
                                                                 301))
    ab = rng.normal(size=(k + 1, n)) * 10.0 ** rng.integers(
        -3, 8, size=(k + 1, 1))
    for X in (rng.normal(size=n), rng.normal(size=(n, 7)),
              rng.normal(size=(n, 3, 5)), rng.normal(size=(9, n)).T):
        product = band_product(ab, X)
        assert product.shape == X.shape
        assert np.array_equal(product, dia_product(ab, X))
