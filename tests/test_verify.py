import sys

import numpy as np
import pytest

from beamload import assembly, forward, objective, verify
from beamload.constants import compute_constants
from beamload.model import l2_norm_spacetime, series_l2_norm
from beamload.verify import (duality_checks, random_load,
                             random_smooth_series, verify_inequality_suite)

EXPECTED_PER_SCENARIO = 10 + 1 + 2 + 1 + 6 + 1   # all inequality families


def test_suite_passes_with_zero_violations(small_grid, small_coeffs):
    report = verify_inequality_suite(small_grid, small_coeffs,
                                     n_scenarios=3, seed=0)
    assert report.ok, [r.as_tuple() for r in report.violations]
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
    assert [a.as_tuple() for a in r1.rows] == [b.as_tuple() for b in r2.rows]


def test_empty_suite(small_grid, small_coeffs):
    report = verify_inequality_suite(small_grid, small_coeffs,
                                     n_scenarios=0)
    assert report.ok and report.rows == ()


def test_corrected_variant_also_passes(small_grid, small_coeffs):
    report = verify_inequality_suite(small_grid, small_coeffs,
                                     n_scenarios=2, ct_variant="corrected")
    assert report.ok, [r.as_tuple() for r in report.violations]


def test_duality_negative_control_flags_all_triples(small_grid,
                                                    small_coeffs):
    good = duality_checks(small_grid, small_coeffs, n_triples=3, tol=2e-2)
    assert good.ok
    bad = duality_checks(small_grid, small_coeffs, n_triples=3, tol=2e-2,
                         adjoint_sign=-1.0)
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


def test_suite_assembly_does_not_grow_with_scenarios(small_grid,
                                                     small_coeffs,
                                                     monkeypatch):
    """The system, the unit-norm matrices and the impulse kernel are built
    once per call."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    # patch every module that imported the builders by name
    builders = (assembly.assemble, assembly.unit_norm_matrices,
                forward._build_kernel)
    for name, module in list(sys.modules.items()):
        if name == "beamload" or name.startswith("beamload."):
            for attr, value in list(vars(module).items()):
                if any(value is b for b in builders):
                    monkeypatch.setattr(module, attr, counted(value))

    counts = []
    for n in (1, 3):
        calls.clear()
        verify_inequality_suite(small_grid, small_coeffs, n_scenarios=n)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert counts[0].count("_build_kernel") == 1


def test_suite_evaluates_two_misfits_per_scenario(small_grid, small_coeffs,
                                                  monkeypatch):
    """The gradient Lipschitz row reuses the two misfit evaluations of the
    misfit Lipschitz row."""
    calls = []
    evaluate = objective.evaluate_objective

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    for module in (objective, verify):
        monkeypatch.setattr(module, "evaluate_objective", counted)
    verify_inequality_suite(small_grid, small_coeffs, n_scenarios=3)
    assert len(calls) == 2 * 3


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
