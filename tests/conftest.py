import numpy as np
import pytest

from beamload.model import CoefficientSet, SpaceTimeGrid


@pytest.fixture(scope="session")
def baseline_grid():
    return SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=64,
                         n_steps=512)


@pytest.fixture(scope="session")
def small_grid():
    return SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=16,
                         n_steps=96)


@pytest.fixture(scope="session")
def mfd_coeffs(baseline_grid):
    """Constant coefficients of the manufactured-solution case."""
    return CoefficientSet.constant(baseline_grid, rho_A=1.0, mu=0.1,
                                   T_r=0.2, r=1.0, kappa=0.05)


@pytest.fixture(scope="session")
def small_coeffs(small_grid):
    return CoefficientSet.constant(small_grid, rho_A=1.0, mu=0.05,
                                   T_r=0.1, r=0.8, kappa=0.02)


def _dense(ab):
    """The symmetric matrix held in upper band storage ab[k + i - j, j]."""
    k = ab.shape[0] - 1
    upper = sum(np.diag(ab[k - d, d:], d) for d in range(k + 1))
    return upper + np.triu(upper, 1).T


@pytest.fixture(scope="session")
def dense():
    """Band storage to dense, for tests that check matrix invariants."""
    return _dense
