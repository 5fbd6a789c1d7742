import numpy as np
import pytest

from beamload.constants import compute_constants
from beamload.model import CoefficientBounds


def tight_bounds(rho0=1.0, r0=1.0, kappa0=0.01):
    return CoefficientBounds(rho0, rho0, 0.0, 0.0, 0.0, 0.0,
                             r0, r0, kappa0, kappa0)


def test_reference_values_at_unit_parameters():
    c = compute_constants(1.0, 1.0, tight_bounds())
    e = np.e
    assert c.Ce_sq == pytest.approx(e, rel=1e-15)
    assert c.C1_sq == pytest.approx(5.0 / 3.0 * (e - 1.0), rel=1e-15)
    assert c.C1_sq == pytest.approx(2.8638030474, rel=1e-9)
    assert c.C_L == pytest.approx(np.sqrt(c.C1_sq), rel=1e-15)
    assert c.C_T == pytest.approx(2.0)
    assert c.C0_sq == pytest.approx(40.0 / 3.0, rel=1e-15)
    L_G = np.sqrt((e - 1.0) / 0.02) * np.sqrt(40.0 / 3.0) * c.C1
    assert c.L_G == pytest.approx(L_G, rel=1e-13)


def test_misfit_constant_includes_measurement_norms():
    b = tight_bounds()
    plain = compute_constants(1.0, 1.0, b, C_F=2.0)
    with_data = compute_constants(1.0, 1.0, b, C_F=2.0,
                                  theta0_norm=0.3, thetaL_norm=0.4)
    assert with_data.C_J == pytest.approx(plain.C_J + 0.7 * plain.C_L,
                                          rel=1e-13)


def test_monotonicity_in_arguments():
    b = tight_bounds()
    base = compute_constants(1.0, 1.0, b)
    longer = compute_constants(1.0, 2.0, b)
    assert longer.Ce_sq > base.Ce_sq
    assert longer.C1_sq > base.C1_sq
    assert longer.L_G > base.L_G
    heavier = compute_constants(1.0, 1.0, tight_bounds(rho0=2.0))
    assert heavier.Ce_sq < base.Ce_sq
    stiffer = compute_constants(1.0, 1.0, tight_bounds(r0=2.0))
    assert stiffer.C_L < base.C_L
    assert stiffer.C0_sq < base.C0_sq
    more_damped = compute_constants(1.0, 1.0, tight_bounds(kappa0=0.04))
    assert more_damped.L_G == pytest.approx(base.L_G / 2.0, rel=1e-13)
    wider = compute_constants(2.0, 1.0, b)
    assert wider.C1_sq == pytest.approx(2.0 * base.C1_sq, rel=1e-13)


def test_ct_variant_is_threaded_through():
    b = tight_bounds()
    lit = compute_constants(1.0, 4.0, b, ct_variant="literal")
    cor = compute_constants(1.0, 4.0, b, ct_variant="corrected")
    assert lit.C_T == pytest.approx(5.0)
    assert cor.C_T == pytest.approx(11.0 / 3.0)
    assert cor.L_G < lit.L_G
    assert lit.ct_variant == "literal" and cor.ct_variant == "corrected"


def test_input_validation():
    with pytest.raises(ValueError):
        compute_constants(-1.0, 1.0, tight_bounds())
    with pytest.raises(ValueError):
        compute_constants(1.0, 1.0, tight_bounds(kappa0=0.0))
