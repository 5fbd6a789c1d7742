import numpy as np
import pytest

from beamload.errors import DimensionError
from beamload.model import (CoefficientBounds, CoefficientSet, LoadField,
                            MeasurementSeries, SpaceTimeGrid,
                            l2_norm_spacetime, project_admissible,
                            series_l2_norm, trapezoid_weights,
                            validate_coefficients)


def test_trapezoid_weights_integrate_linear_exactly():
    n, h = 11, 0.3
    w = trapezoid_weights(n, h)
    x = np.arange(n) * h
    assert w.sum() == pytest.approx((n - 1) * h)
    assert w @ x == pytest.approx(0.5 * ((n - 1) * h) ** 2)


def test_grid_properties():
    g = SpaceTimeGrid(length=2.0, final_time=0.5, n_elements=8, n_steps=10)
    assert g.h == pytest.approx(0.25)
    assert g.dt == pytest.approx(0.05)
    assert g.n_nodes == 9
    assert g.n_times == 11
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
    r = g.refined()
    assert r.n_elements == 16 and r.n_steps == 20
    assert r.length == g.length and r.final_time == g.final_time


@pytest.mark.parametrize("kwargs", [
    dict(length=-1.0, final_time=1.0, n_elements=8, n_steps=8),
    dict(length=1.0, final_time=0.0, n_elements=8, n_steps=8),
    dict(length=1.0, final_time=1.0, n_elements=3, n_steps=8),
    dict(length=1.0, final_time=1.0, n_elements=8, n_steps=2),
    dict(length=float("nan"), final_time=1.0, n_elements=8, n_steps=8),
    dict(length=1.0, final_time=float("nan"), n_elements=8, n_steps=8),
])
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        SpaceTimeGrid(**kwargs)


def test_spacetime_norm_of_constant_and_mode():
    g = SpaceTimeGrid(length=2.0, final_time=3.0, n_elements=64, n_steps=192)
    ones = LoadField(np.ones((g.n_nodes, g.n_times)), g)
    assert l2_norm_spacetime(ones) == pytest.approx(np.sqrt(6.0), rel=1e-12)
    x = g.nodes[:, None]
    t = g.times[None, :]
    mode = LoadField(np.sin(np.pi * x / 2.0) * np.sin(np.pi * t / 3.0), g)
    # ||sin sin||^2 = l T / 4
    assert l2_norm_spacetime(mode) == pytest.approx(np.sqrt(6.0) / 2.0,
                                                    rel=1e-3)


def test_series_norm_constant():
    T, n = 3.0, 31
    dt = T / (n - 1)
    assert series_l2_norm(np.ones(n), dt) == pytest.approx(np.sqrt(T))


def test_load_field_shape_guard_and_algebra():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=4, n_steps=4)
    with pytest.raises(DimensionError):
        LoadField(np.zeros((3, 3)), g)
    a = LoadField(np.ones((g.n_nodes, g.n_times)), g)
    b = LoadField(np.full((g.n_nodes, g.n_times), 3.0), g)
    assert np.all((b - a).values == 2.0)


def test_projection_onto_admissible_ball():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    big = LoadField(np.full((g.n_nodes, g.n_times), 5.0), g)
    C_F = 4.0
    proj = project_admissible(big, C_F)
    assert l2_norm_spacetime(proj) ** 2 == pytest.approx(C_F)
    small = LoadField(np.full((g.n_nodes, g.n_times), 0.1), g)
    assert project_admissible(small, C_F) is small
    with pytest.raises(ValueError):
        project_admissible(small, 0.0)


def test_validate_coefficients_accepts_valid_fields():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    coeffs = CoefficientSet.constant(g, rho_A=2.0, mu=0.0, T_r=0.0,
                                     r=1.5, kappa=0.03)
    report = validate_coefficients(coeffs)
    assert report.ok
    assert "satisfied" in str(report)


def test_validate_coefficients_flags_out_of_bound_node():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    r = np.full(g.n_nodes, 1.0)
    r[3] = 0.1
    bounds = CoefficientBounds(1, 1, 0, 0, 0, 0, 0.5, 2.0, 0.01, 0.01)
    coeffs = CoefficientSet(np.ones(g.n_nodes), np.zeros(g.n_nodes),
                            np.zeros(g.n_nodes), r,
                            np.full(g.n_nodes, 0.01), bounds)
    report = validate_coefficients(coeffs)
    assert not report.ok
    names = {v[0] for v in report.violations}
    assert names == {"r"}
    assert report.violations[0][1] == 3


def test_validate_coefficients_requires_positive_lower_bounds():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    bounds = CoefficientBounds(1, 1, 0, 0, 0, 0, 1, 1, 0.0, 1.0)
    coeffs = CoefficientSet.constant(g, bounds=bounds)
    report = validate_coefficients(coeffs)
    assert not report.ok


def test_validate_coefficients_flags_non_finite_values():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    coeffs = CoefficientSet.constant(g)
    coeffs.kappa[2] = np.nan
    coeffs.rho_A[4] = np.inf
    report = validate_coefficients(coeffs)
    flagged = {(v[0], v[1]) for v in report.violations}
    assert {("kappa", 2), ("rho_A", 4)} <= flagged
    # non-finite bounds
    bounds = CoefficientBounds(1, 1, 0, 0, 0, 0, float("nan"), 1,
                               0.01, float("inf"))
    report = validate_coefficients(CoefficientSet.constant(g, bounds=bounds))
    assert {(v[0], v[1]) for v in report.violations} == {("r", -1),
                                                         ("kappa", -1)}


def test_measurement_series_h1_state_needs_derivatives():
    y = np.zeros(5)
    with pytest.raises(DimensionError):
        MeasurementSeries(theta0=y, thetaL=y, tag="h1")
    with pytest.raises(DimensionError):
        MeasurementSeries(theta0=y, thetaL=np.zeros(4))
