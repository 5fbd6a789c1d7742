"""The LAPACK and BLAS wrappers of `beamload._lapack` against scipy's public
functions: the same compiled routine on the same arguments, so the same
bits and the same errors."""

import importlib
import importlib.machinery
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import beamload
from beamload import _lapack
from beamload.forward import _block_diagonal


def spd_band(rng, kd, n):
    """A random symmetric positive definite matrix in upper band storage
    (kd + 1, n), made so by diagonal dominance."""
    ab = rng.uniform(-1.0, 1.0, (kd + 1, n))
    ab[kd] = 2.0 * kd + 1.0 + rng.random(n)
    return ab


CASES = [(kd, n, b) for kd in (1, 2, 3) for n in (4, 33, 130)
         for b in (1, 2)]


def band_case(kd, n, b):
    """An SPD band of kd, tiled to b uncoupled copies as Newmark tiles
    its bands, and a random vector and three right-hand sides."""
    rng = np.random.default_rng(100 * kd + n + b)
    ab = spd_band(rng, kd, n)
    if b > 1:
        ab = _block_diagonal(ab, b)
    return ab, rng.standard_normal(b * n), rng.standard_normal((b * n, 3))


@pytest.mark.parametrize("kd, n, b", CASES)
def test_wrappers_match_scipy_bit_for_bit(kd, n, b):
    from scipy.linalg import blas, cholesky_banded, lapack, solveh_banded
    ab, x, rhs = band_case(kd, n, b)
    kept = [a.copy() for a in (ab, x, rhs)]
    c = _lapack.cholesky_banded(ab)
    assert np.array_equal(c, cholesky_banded(ab))
    for y in (x, rhs):
        ours, info = _lapack.dpbtrs(c, y)
        theirs, their_info = lapack.dpbtrs(c, y)
        assert info == their_info == 0
        assert np.array_equal(ours, theirs)
    assert np.array_equal(_lapack.dsbmv(kd, 1.0, ab, x),
                          blas.dsbmv(kd, 1.0, ab, x))
    # a two-row band goes to scipy's tridiagonal solver, which beamload
    # never calls: its one banded solve is pentadiagonal
    if kd >= 2:
        for y in (x, rhs):
            assert np.array_equal(_lapack.solveh_banded(ab, y),
                                  solveh_banded(ab, y))
        # a list is copied, so LAPACK may overwrite the copy
        listed = _lapack.solveh_banded(ab.tolist(), x.tolist())
        assert np.array_equal(listed, solveh_banded(ab, x))
    # no input is overwritten
    assert all(map(np.array_equal, (ab, x, rhs), kept))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_input_is_a_value_error(bad):
    from scipy.linalg import cholesky_banded, solveh_banded
    ab, x, _ = band_case(2, 33, 1)
    ab[2, 5] = bad
    for solve in (_lapack.cholesky_banded, cholesky_banded):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(ab)
    for solve in (_lapack.solveh_banded, solveh_banded):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(ab, x)
    ab, x, _ = band_case(2, 33, 1)
    x[3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.solveh_banded(ab, x)


def test_indefinite_band_is_scipys_linalg_error():
    from scipy.linalg import LinAlgError, cholesky_banded, solveh_banded
    assert LinAlgError is np.linalg.LinAlgError
    ab, x, _ = band_case(3, 33, 1)
    ab[3, 7] = -1.0
    message = "8-?th leading minor not positive definite"
    for factor in (_lapack.cholesky_banded, cholesky_banded):
        with pytest.raises(np.linalg.LinAlgError, match=message):
            factor(ab)
    for solve in (_lapack.solveh_banded, solveh_banded):
        with pytest.raises(np.linalg.LinAlgError, match=message):
            solve(ab, x)


def _no_extension_suffixes(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])


def _failing_loader(monkeypatch):
    def refuse(*args):
        raise ImportError("refused")
    monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", refuse)


@pytest.mark.parametrize("break_load", [_no_extension_suffixes,
                                        _failing_loader],
                         ids=["missing_file", "failing_loader"])
def test_fallback_binds_scipys_modules(break_load, monkeypatch):
    from scipy.linalg import _fblas, _flapack
    ab, x, rhs = band_case(3, 33, 2)
    c = _lapack.cholesky_banded(ab)
    expected = (c, _lapack.dpbtrs(c, rhs)[0], _lapack.dsbmv(3, 1.0, ab, x),
                _lapack.solveh_banded(ab, x))
    break_load(monkeypatch)
    try:
        importlib.reload(_lapack)
        assert _lapack._flapack is _flapack and _lapack._fblas is _fblas
        assert _lapack.dpbtrs is _flapack.dpbtrs
        assert _lapack.dsbmv is _fblas.dsbmv
        c = _lapack.cholesky_banded(ab)
        found = (c, _lapack.dpbtrs(c, rhs)[0], _lapack.dsbmv(3, 1.0, ab, x),
                 _lapack.solveh_banded(ab, x))
    finally:
        monkeypatch.undo()
        importlib.reload(_lapack)
    assert _lapack._flapack is not _flapack
    assert all(np.array_equal(a, b) for a, b in zip(found, expected))


# A fresh interpreter solves with beamload's wrappers before anything has
# imported scipy, then imports scipy.linalg, which initialises its own
# copy of the compiled modules, and compares the two on one band.
LATE_IMPORT = """
import sys
import numpy as np
from beamload import _lapack
from beamload.forward import solve_forward
from beamload.measurements import ModalLoad
from beamload.model import CoefficientSet, SpaceTimeGrid

grid = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=8, n_steps=32)
coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.1, r=0.8,
                                 kappa=0.02)
traj = solve_forward(coeffs, ModalLoad((1.0, 0.5)).field(grid), grid)
print("solved:", "scipy" in sys.modules, np.isfinite(traj.u).all())

import scipy.linalg
from scipy.linalg import blas, lapack
ab = traj.system.M + traj.system.K
kd, x = ab.shape[0] - 1, np.arange(ab.shape[1], dtype=float)
c = _lapack.cholesky_banded(ab)
print("after import scipy.linalg:",
      np.array_equal(c, scipy.linalg.cholesky_banded(ab)),
      np.array_equal(_lapack.dpbtrs(c, x)[0], lapack.dpbtrs(c, x)[0]),
      np.array_equal(_lapack.dsbmv(kd, 1.0, ab, x),
                     blas.dsbmv(kd, 1.0, ab, x)),
      np.array_equal(_lapack.solveh_banded(ab, x),
                     scipy.linalg.solveh_banded(ab, x)))
"""


def test_late_scipy_linalg_import_agrees_with_wrappers():
    out = subprocess.run([sys.executable, "-c", LATE_IMPORT],
                         capture_output=True, text=True, check=True,
                         timeout=60,
                         cwd=pathlib.Path(beamload.__file__).parent.parent)
    assert out.stdout.splitlines() == [
        "solved: False True",
        "after import scipy.linalg: True True True True"]
