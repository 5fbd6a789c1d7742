import collections
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.fft import rfft

from beamload.assembly import assemble
from beamload.forward import (ImpulseKernel, end_rotation_responses,
                              impulse_kernel, kernel_fft_length)
from beamload.model import CoefficientBounds, CoefficientSet, SpaceTimeGrid


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


@pytest.fixture(scope="session")
def flipped_kernel(small_grid, small_coeffs):
    """The impulse kernel of the small case with its adjoint negated, the
    duality checks' negative control.  Negation is exact in floating
    point, so its phi is the kernel's of the negated moment data."""
    kernel = impulse_kernel(assemble(small_grid, small_coeffs), small_grid)
    return SimpleNamespace(outputs=kernel.outputs,
                           adjoint=lambda p, q: -kernel.adjoint(p, q))


def _full_kernel(system, grid, u=None):
    """The ImpulseKernel with every node's responses kept as spectra and
    no basis: `impulse_kernel` as it was before it factored the responses
    at their numerical rank.  The reference of the factored kernel."""
    n_fft = kernel_fft_length(grid)
    n_freq = n_fft // 2 + 1
    n_nodes = system.load_map.shape[1]
    if u is None:
        u = end_rotation_responses(system, grid)[0]
    kernel = ImpulseKernel(
        n_fft=n_fft, n_times=grid.n_times,
        outputs_t1=np.empty((2, n_nodes, n_freq), dtype=complex),
        adjoint_t1=np.empty((n_nodes - 2, 2, n_freq), dtype=complex),
        system=system)
    for i, response in enumerate(u):
        rfft(system.load_map.T @ response, n_fft, out=kernel.outputs_t1[i])
        rfft(response[system.deflection_dofs], n_fft,
             out=kernel.adjoint_t1[:, i])
    return kernel


@pytest.fixture(scope="session")
def full_kernel():
    """The unfactored impulse kernel of a system on a grid."""
    return _full_kernel


def _dense(ab):
    """The symmetric matrix held in upper band storage ab[k + i - j, j]."""
    k = ab.shape[0] - 1
    upper = sum(np.diag(ab[k - d, d:], d) for d in range(k + 1))
    return upper + np.triu(upper, 1).T


@pytest.fixture(scope="session")
def dense():
    """Band storage to dense, for tests that check matrix invariants."""
    return _dense


def _variable_coefficients(grid, rng):
    """Smooth random coefficient fields with bounds at their extrema."""
    x = grid.nodes / grid.length
    fields = {}
    for name, base in (("rho_A", 1.0), ("mu", 0.05), ("T_r", 0.1),
                       ("r", 0.8), ("kappa", 0.02)):
        a, b = rng.uniform(-0.4, 0.4, size=2)
        fields[name] = base * (1.0 + a * np.sin(np.pi * x) + b * x)
    bounds = CoefficientBounds(
        *(f(fields[name]) for name in ("rho_A", "mu", "T_r", "r", "kappa")
          for f in (np.min, np.max)))
    return CoefficientSet(bounds=bounds, **fields)


def _random_case(seed):
    """A random small grid with random variable coefficients, its system
    and the generator that drew them."""
    rng = np.random.default_rng(seed)
    grid = SpaceTimeGrid(length=rng.uniform(0.5, 2.0),
                         final_time=rng.uniform(0.5, 2.0),
                         n_elements=int(rng.integers(4, 24)),
                         n_steps=int(rng.integers(16, 128)))
    coeffs = _variable_coefficients(grid, rng)
    return grid, coeffs, assemble(grid, coeffs), rng


@pytest.fixture(scope="session")
def variable_coefficients():
    """Random variable coefficients of a grid, drawn from a generator."""
    return _variable_coefficients


@pytest.fixture(scope="session")
def random_case():
    """(grid, coeffs, system, rng) of a random case, from its seed."""
    return _random_case


@pytest.fixture
def count_calls(monkeypatch):
    """Install counters on beamload functions at every module that
    imported them by name, and return the Counter of their calls by
    function name."""
    def install(*functions):
        calls = collections.Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        wrappers = {id(fn): (fn, counted(fn)) for fn in functions}
        for name, module in list(sys.modules.items()):
            if name == "beamload" or name.startswith("beamload."):
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        monkeypatch.setattr(module, attr, hit[1])
        return calls
    return install
