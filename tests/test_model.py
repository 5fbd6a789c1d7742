import numpy as np
import pytest

from beamload.errors import DimensionError, ValidationError
from beamload.model import (CoefficientBounds, CoefficientSet, LoadField,
                            MeasurementSeries, SpaceTimeGrid,
                            l2_norm_spacetime, radial_scale,
                            series_l2_norm, trapezoid_weights)


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
    """Outside the ball ||F||^2 <= C_F the factor scales a load onto its
    sphere; inside it and at 0 it is 1."""
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    big = LoadField(np.full((g.n_nodes, g.n_times), 5.0), g)
    C_F = 4.0
    proj = big.values * radial_scale(l2_norm_spacetime(big) ** 2, C_F)
    assert l2_norm_spacetime(LoadField(proj, g)) ** 2 == pytest.approx(C_F)
    small = LoadField(np.full((g.n_nodes, g.n_times), 0.1), g)
    assert radial_scale(l2_norm_spacetime(small) ** 2, C_F) == 1.0
    assert radial_scale(0.0, C_F) == 1.0


TIGHT = CoefficientBounds(1, 1, 0, 0, 0, 0, 1, 1, 0.01, 0.01)


def constant_fields(grid, **values):
    """Arrays of the constant set's fields, to edit before construction."""
    c = dict(rho_A=1.0, mu=0.0, T_r=0.0, r=1.0, kappa=0.01, **values)
    return {name: np.full(grid.n_nodes, value) for name, value in c.items()}


def violations(fields, bounds):
    """The lines of the ValidationError that constructing a set raises,
    after its header."""
    with pytest.raises(ValidationError) as raised:
        CoefficientSet(bounds=bounds, **fields)
    header, *lines = str(raised.value).split("\n")
    assert header == "inadmissible coefficients:"
    return lines


def test_validate_coefficients_accepts_valid_fields():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    coeffs = CoefficientSet.constant(g, rho_A=2.0, mu=0.0, T_r=0.0,
                                     r=1.5, kappa=0.03)
    assert coeffs.rho_A.dtype == np.float64
    assert np.all(coeffs.r == 1.5) and np.all(coeffs.kappa == 0.03)


def test_validate_coefficients_flags_out_of_bound_node():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    fields = constant_fields(g)
    fields["r"][3] = 0.1
    bounds = CoefficientBounds(1, 1, 0, 0, 0, 0, 0.5, 2.0, 0.01, 0.01)
    assert violations(fields, bounds) == [
        "r[3] = 0.1 violates lower bound 0.5"]


def test_validate_coefficients_requires_positive_lower_bounds():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    bounds = CoefficientBounds(1, 1, 0, 0, 0, 0, 1, 1, 0.0, 1.0)
    assert violations(constant_fields(g), bounds) == [
        "kappa[-1] = 0 violates lower bound must be positive"]


@pytest.mark.parametrize("field,bounds", [
    ("mu", CoefficientBounds(1, 1, -1, 0, 0, 0, 1, 1, 0.01, 0.01)),
    ("T_r", CoefficientBounds(1, 1, 0, 0, -1, 0, 1, 1, 0.01, 0.01)),
])
def test_validate_coefficients_requires_nonnegative_damping_and_tension(
        field, bounds):
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    # vanishing damping and tension stay admissible
    CoefficientSet.constant(g)
    # a negative lower bound is flagged even when every sample is zero
    assert violations(constant_fields(g), bounds) == [
        f"{field}[-1] = -1 violates lower bound must be nonnegative"]
    # a negative sample falls below the zero lower bound
    fields = constant_fields(g)
    fields[field][3] = -1.0
    assert violations(fields, TIGHT) == [
        f"{field}[3] = -1 violates lower bound 0"]


def test_validate_coefficients_flags_non_finite_values():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    fields = constant_fields(g)
    fields["kappa"][2] = np.nan
    fields["rho_A"][4] = np.inf
    lines = violations(fields, TIGHT)
    # several fields in one message, each non-finite sample named
    assert {"kappa[2] = nan violates finiteness",
            "rho_A[4] = inf violates finiteness"} <= set(lines)
    # non-finite bounds
    bounds = CoefficientBounds(1, 1, 0, 0, 0, 0, float("nan"), 1,
                               0.01, float("inf"))
    assert violations(constant_fields(g), bounds) == [
        "r[-1] = nan violates lower bound must be finite",
        "kappa[-1] = inf violates upper bound must be finite"]


def test_coefficient_fields_are_read_only_copies():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    fields = constant_fields(g)
    coeffs = CoefficientSet(bounds=TIGHT, **fields)
    for name, array in fields.items():
        with pytest.raises(ValueError, match="read-only"):
            getattr(coeffs, name)[3] = -1.0
        # the caller's array stays writable and apart from the set's
        array[3] = -1.0
        assert getattr(coeffs, name)[3] != -1.0


def test_coefficient_lengths_must_match():
    g = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=8)
    fields = constant_fields(g)
    fields["kappa"] = fields["kappa"][:-1]
    with pytest.raises(DimensionError, match="kappa has 8 samples"):
        CoefficientSet(bounds=TIGHT, **fields)


def test_measurement_series_rejects_unequal_lengths():
    with pytest.raises(DimensionError):
        MeasurementSeries(theta0=np.zeros(5), thetaL=np.zeros(4))
