import numpy as np
import pytest

from beamload.adjoint import check_adjoint_estimates, solve_adjoint
from beamload.assembly import assemble, nodal, unit_norm_matrices
from beamload.constants import compute_constants, transfer_constant
from beamload.errors import DivergenceError
from beamload.model import CoefficientSet, SpaceTimeGrid, trapezoid_weights


def smooth_series(grid, seed=0, n_modes=3):
    rng = np.random.default_rng(seed)
    t = grid.times
    T = grid.final_time
    y = np.zeros_like(t)
    dy = np.zeros_like(t)
    for j in range(1, n_modes + 1):
        a = rng.normal()
        w = j * np.pi / T
        y += a * np.sin(w * t)
        dy += a * w * np.cos(w * t)
    return y, dy


def test_zero_data_gives_zero_adjoint(small_grid, small_coeffs):
    z = np.zeros(small_grid.n_times)
    adj = solve_adjoint(small_coeffs, z, z, small_grid)
    assert np.all(adj.phi == 0.0)
    assert np.all(adj.phi_t == 0.0)


def test_final_conditions_are_exact(small_grid, small_coeffs):
    p, _ = smooth_series(small_grid, seed=1)
    q, _ = smooth_series(small_grid, seed=2)
    adj = solve_adjoint(small_coeffs, p, q, small_grid)
    # time reversal starts the backward integration from rest, so the
    # final values vanish identically, not just approximately
    assert np.all(adj.phi[:, -1] == 0.0)
    assert np.all(adj.phi_t[:, -1] == 0.0)
    assert adj.phi.shape == (2 * small_grid.n_nodes - 2,
                             small_grid.n_times)


def test_adjoint_rejects_non_finite_data(small_grid, small_coeffs):
    p = np.zeros(small_grid.n_times)
    bad = p.copy()
    bad[3] = np.inf
    with pytest.raises(DivergenceError, match="adjoint inputs"):
        solve_adjoint(small_coeffs, bad, p, small_grid)


def test_adjoint_rejects_wrong_length_data(small_grid, small_coeffs):
    p = np.zeros(small_grid.n_times)
    with pytest.raises(ValueError):
        solve_adjoint(small_coeffs, p[:-1], p, small_grid)
    with pytest.raises(ValueError):
        solve_adjoint(small_coeffs, p, np.zeros(small_grid.n_times + 1),
                      small_grid)
    # one (p, q) pair per call: a batch of series is not a pair
    pq = np.zeros((2, small_grid.n_times))
    with pytest.raises(ValueError):
        solve_adjoint(small_coeffs, pq, pq, small_grid)


def test_adjoint_is_linear_in_data(small_grid, small_coeffs):
    p1, _ = smooth_series(small_grid, seed=3)
    p2, _ = smooth_series(small_grid, seed=4)
    z = np.zeros_like(p1)
    a1 = solve_adjoint(small_coeffs, p1, z, small_grid).phi
    a2 = solve_adjoint(small_coeffs, p2, z, small_grid).phi
    a12 = solve_adjoint(small_coeffs, p1 + p2, z, small_grid).phi
    scale = np.max(np.abs(a12))
    assert np.max(np.abs(a1 + a2 - a12)) / scale < 1e-10


def test_transfer_constant_values():
    # literal max(2/T, 1+T); corrected max(2/T, 1 + 2T/3)
    assert transfer_constant(1.0, "literal") == pytest.approx(2.0)
    assert transfer_constant(1.0, "corrected") == pytest.approx(2.0)
    assert transfer_constant(4.0, "literal") == pytest.approx(5.0)
    assert transfer_constant(4.0, "corrected") == pytest.approx(11.0 / 3.0)
    assert transfer_constant(0.5, "literal") == pytest.approx(4.0)
    assert transfer_constant(0.5, "corrected") == pytest.approx(4.0)
    with pytest.raises(ValueError):
        transfer_constant(1.0, "other")


def test_adjoint_estimates_hold(small_grid, small_coeffs, rows_of_one,
                                norm_series):
    p, dp = smooth_series(small_grid, seed=5)
    q, dq = smooth_series(small_grid, seed=6)
    adj = solve_adjoint(small_coeffs, p, q, small_grid)
    checks = rows_of_one(
        check_adjoint_estimates,
        norm_series.adjoint(adj, unit_norm_matrices(small_grid)),
        small_grid, small_coeffs, dp, dq)
    assert len(checks) == 6
    assert [c.check for c in checks if not c.ok] == []


@pytest.mark.parametrize("ct_variant", ["literal", "corrected"])
def test_adjoint_bounds_read_compute_constants(ct_variant, rows_of_one,
                                               norm_series):
    """Every bound is C_0^2 ||(p', q')||^2 times a closed form, with C_0^2
    of `compute_constants`; at T = 2 the two C_T variants differ."""
    grid = SpaceTimeGrid(length=1.0, final_time=2.0, n_elements=16,
                         n_steps=96)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.1,
                                     r=0.8, kappa=0.02)
    p, dp = smooth_series(grid, seed=5)
    q, dq = smooth_series(grid, seed=6)
    adj = solve_adjoint(coeffs, p, q, grid)
    checks = rows_of_one(
        check_adjoint_estimates,
        norm_series.adjoint(adj, unit_norm_matrices(grid)), grid, coeffs,
        dp, dq, ct_variant=ct_variant)
    assert [c.check for c in checks if not c.ok] == []

    b = coeffs.bounds
    C0_sq = compute_constants(grid.length, grid.final_time, b,
                              ct_variant=ct_variant).C0_sq
    wt = trapezoid_weights(grid.n_times, grid.dt)
    scale = C0_sq * (wt @ dp ** 2 + wt @ dq ** 2)
    eT = np.exp(grid.final_time)
    expected = {}
    for name, f in (("phixx", 1.0), ("phit", b.r0 / (2.0 * b.rho0)),
                    ("phixxt", b.r0 / (2.0 * b.kappa0))):
        expected[f"adjoint_{name}_LinfL2"] = eT * f * scale
        expected[f"adjoint_{name}_L2L2"] = (eT - 1.0) * f * scale
    assert {c.check: c.rhs for c in checks} == pytest.approx(expected,
                                                             rel=1e-14)


def modal_adjoint_error(modal_adjoint, n_elements, n_steps, n, omega, mu):
    """The largest error of the mode-n coefficient of `solve_adjoint`'s
    field, (2 / l) times its trapezoid inner product with sin(k x) over
    the nodes, against the continuum coefficient of `modal_adjoint`, over
    the largest continuum one, on the `verify` coefficients with damping
    mu."""
    grid = SpaceTimeGrid(1.0, 1.0, n_elements, n_steps)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=mu, T_r=0.1, r=0.8,
                                     kappa=0.02)
    p, q, exact = modal_adjoint(grid, coeffs, n, omega)
    system = assemble(grid, coeffs)
    phi = solve_adjoint(coeffs, p, q, grid, system=system).phi
    shape = np.sin(n * np.pi * grid.nodes / grid.length)
    weights = 2.0 / grid.length * trapezoid_weights(grid.n_nodes, grid.h)
    ours = (weights * shape) @ nodal(phi[system.deflection_dofs])
    return np.max(np.abs(ours - exact)) / np.max(np.abs(exact))


@pytest.mark.parametrize("n,omega,mu", [
    (1, 3.0, 0.05), (1, 9.0, 0.05), (2, 3.0, 0.05), (2, 9.0, 0.05),
    (1, 9.0, 0.0), (2, 9.0, 0.0)])
def test_adjoint_converges_to_the_modal_solution(n, omega, mu,
                                                 modal_adjoint):
    """The adjoint field's mode-n coefficient converges to the continuum
    one at second order: each joint halving of h and dt, from 8x64 to
    32x256, divides the largest error by at least 3.5, and at 32x256 it
    is below 5e-3 of the largest coefficient.  The moment data drive
    every mode, odd and even ones with different weights of p and q, so
    a sign of either forcing or a time direction that is wrong fails."""
    errors = [modal_adjoint_error(modal_adjoint, 8 * 2 ** j, 64 * 2 ** j,
                                  n, omega, mu) for j in range(3)]
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5
    assert errors[2] <= 5e-3
