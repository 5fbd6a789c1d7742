"""The LAPACK and BLAS wrappers of `beamload._lapack` against scipy's public
functions: the same routines on the same arguments, so the same bits and
the same errors, from numpy's OpenBLAS and from the scipy.linalg
fallback alike."""

import ctypes
import importlib
import os
import pathlib
import subprocess
import sys
import types

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
    """An SPD band of kd, tiled to b uncoupled copies in Fortran order as
    Newmark tiles its bands, and a random vector and three right-hand
    sides."""
    rng = np.random.default_rng(100 * kd + n + b)
    ab = _block_diagonal(spd_band(rng, kd, n), b)
    return ab, rng.standard_normal(b * n), rng.standard_normal((b * n, 3))


def same_bits(ours, theirs):
    """Equal arrays of one shape, sign bits of zeros included."""
    return (np.shape(ours) == np.shape(theirs)
            and np.array_equal(ours, theirs)
            and np.array_equal(np.signbit(ours), np.signbit(theirs)))


def solved(cb, b):
    """`_lapack.bound_solve` on a copy of the vector b, called once."""
    x = b.copy()
    _lapack.bound_solve(cb, x)()
    return x


def multiplied(ab, x):
    """`_lapack.bound_matvec` of the vector x, called once, into a buffer
    that holds NaNs: dsbmv with beta = 0 must not read it."""
    y = np.full(x.shape, np.nan)
    _lapack.bound_matvec(ab, x.copy(), y)()
    return y


def all_routines(ab, x, rhs):
    """The four routines of `_lapack` on one band, each once."""
    c = _lapack.cholesky_banded(ab)
    return (c, solved(c, x), multiplied(ab, x),
            _lapack.solveh_banded(ab, x), _lapack.solveh_banded(ab, rhs))


@pytest.mark.parametrize("kd, n, b", CASES)
def test_wrappers_match_scipy_bit_for_bit(kd, n, b):
    from scipy.linalg import blas, cholesky_banded, lapack, solveh_banded
    ab, x, rhs = band_case(kd, n, b)
    x[::5] = 0.0
    x[1::5] = -0.0
    kept = [a.copy() for a in (ab, x, rhs)]
    c = _lapack.cholesky_banded(ab)
    assert same_bits(c, cholesky_banded(ab))
    assert same_bits(solved(c, x), lapack.dpbtrs(c, x)[0])
    assert same_bits(multiplied(ab, x), blas.dsbmv(kd, 1.0, ab, x))
    # a two-row band goes to scipy's tridiagonal solver, which beamload
    # never calls: its one banded solve is pentadiagonal
    if kd >= 2:
        for y in (x, rhs):
            assert same_bits(_lapack.solveh_banded(ab, y),
                             solveh_banded(ab, y))
        # a list is copied, as scipy copies it
        listed = _lapack.solveh_banded(ab.tolist(), x.tolist())
        assert same_bits(listed, solveh_banded(ab, x))
    # no input is overwritten
    assert all(map(same_bits, (ab, x, rhs), kept))


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


# A fresh interpreter hands each malformed input to the four routines and
# to scipy's, so that a segfault fails the test instead of ending pytest,
# and prints one line per case: `case routine: ours scipy's`, each the
# exception's type name or `ok` for a result bit-equal to the other.
# scipy's routine for a bound call is the fallback's: `lapack.dpbtrs`
# with its info checked, and `blas.dsbmv`.
MALFORMED = """
import numpy as np
from scipy import linalg
from beamload import _lapack

rng = np.random.default_rng(7)
# integer-valued, so that the integer case holds the same numbers
band = np.asfortranarray(rng.integers(-9, 10, (4, 12)).astype(float))
band[3] = 80.0 + rng.integers(0, 10, 12)
wide = np.asfortranarray(rng.integers(-9, 10, (6, 3)).astype(float))
wide[5] = 80.0
indefinite = band.copy(order="F")
indefinite[3, 4] = -1.0
BANDS = {"band": band, "wide": wide, "indefinite": indefinite}
# what a bound solve takes in place of a band: its factor, where it has one
FACTORS = {"band": linalg.cholesky_banded(band),
           "wide": linalg.cholesky_banded(wide), "indefinite": indefinite}
x = rng.integers(-9, 10, 12).astype(float)


def poked(a, value):
    a = a.copy(order="K")
    a.flat[5] = value
    return a


# case: (base band, the band and vector it makes from the base's)
CASES = {
    "short": ("band", lambda a, v: (a, v[:-1])),
    "c_order": ("band", lambda a, v: (np.ascontiguousarray(a), v)),
    "integer": ("band", lambda a, v: (a.astype(np.int64),
                                      v.astype(np.int64))),
    "nan_band": ("band", lambda a, v: (poked(a, np.nan), v)),
    "inf_band": ("band", lambda a, v: (poked(a, np.inf), v)),
    "nan_vector": ("band", lambda a, v: (a, poked(v, np.nan))),
    "inf_vector": ("band", lambda a, v: (a, poked(v, np.inf))),
    "wide": ("wide", lambda a, v: (a, v[:3])),
    "indefinite": ("indefinite", lambda a, v: (a, v)),
    "strided": ("band", lambda a, v: (a, np.repeat(v, 2)[::2])),
}


def bound_solve(cb, b):
    _lapack.bound_solve(cb, b)()
    return b


def scipy_solve(cb, b):
    y, info = linalg.lapack.dpbtrs(cb, b)
    _lapack._check(info, "pbtrs")
    return y


def bound_matvec(a, v):
    y = np.empty(a.shape[1])
    _lapack.bound_matvec(a, v, y)()
    return y


def scipy_matvec(a, v):
    return linalg.blas.dsbmv(a.shape[0] - 1, 1.0, a, v)


ROUTINES = {
    "cholesky_banded": (lambda a, v: _lapack.cholesky_banded(a),
                        lambda a, v: linalg.cholesky_banded(a)),
    "solveh_banded": (_lapack.solveh_banded, linalg.solveh_banded),
    "bound_solve": (bound_solve, scipy_solve),
    "bound_matvec": (bound_matvec, scipy_matvec),
}


def outcome(call, *args):
    try:
        return call(*args), "ok"
    except Exception as error:
        return None, type(error).__name__


for case, (base, make) in CASES.items():
    for name, (ours, theirs) in ROUTINES.items():
        a = (FACTORS if name == "bound_solve" else BANDS)[base]
        # each call gets its own copies: a bound solve works in place
        mine, said = outcome(ours, *make(a.copy(order="K"), x.copy()))
        ref, scipy_said = outcome(theirs, *make(a.copy(order="K"), x.copy()))
        if said == scipy_said == "ok":
            same = (mine.shape == ref.shape
                    and np.array_equal(mine, ref, equal_nan=True)
                    and np.array_equal(np.signbit(mine), np.signbit(ref)))
            said = scipy_said = "ok" if same else "differs"
        print(f"{case} {name}: {said} {scipy_said}")
"""

# What a bound call refuses that scipy's routine takes: it binds the
# caller's buffers and never copies them, so a converted copy would miss
# what the caller writes between calls, and so it takes only a float64
# vector of the band's length, contiguous, and a band in Fortran order.
# scipy's routines copy such input; dsbmv raises f2py's own error class
# on a short vector and dpbtrs returns info -8.  Neither checks
# finiteness, so NaN and inf pass through both.
REFUSED = {f"{case} {name}": "ValueError"
           for case in ("short", "c_order", "integer", "strided")
           for name in ("bound_solve", "bound_matvec")}


@pytest.fixture(scope="module")
def malformed():
    out = subprocess.run([sys.executable, "-c", MALFORMED],
                         capture_output=True, text=True, check=True,
                         timeout=60,
                         cwd=pathlib.Path(beamload.__file__).parent.parent)
    # scipy's LAPACK prints a line of its own on the short dpbtrs
    return dict(line.split(": ", 1) for line in out.stdout.splitlines()
                if not line.startswith(" ** On entry to "))


def test_malformed_input_raises_scipys_error(malformed):
    assert len(malformed) == 40
    for key, pair in malformed.items():
        ours, theirs = pair.split()
        assert ours == REFUSED.get(key, theirs), key
    # the cases that must fail do fail, as scipy's functions fail
    for case, error in [("short", "ValueError"), ("nan_band", "ValueError"),
                        ("inf_vector", "ValueError"),
                        ("indefinite", "LinAlgError")]:
        assert malformed[f"{case} solveh_banded"] == f"{error} {error}"
    assert malformed["inf_band cholesky_banded"] == "ValueError ValueError"
    assert malformed["indefinite cholesky_banded"] == (
        "LinAlgError LinAlgError")
    # more band rows than columns is a valid band to LAPACK and BLAS
    assert {malformed[f"wide {name}"] for name in (
        "cholesky_banded", "solveh_banded", "bound_solve",
        "bound_matvec")} == {"ok ok"}


def _no_library(monkeypatch):
    monkeypatch.setattr(os, "listdir", lambda path: [])


def _no_symbol(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda path: types.SimpleNamespace())


@pytest.mark.parametrize("lose", [_no_library, _no_symbol],
                         ids=["no_library", "no_symbol"])
def test_fallback_serves_scipy_linalg(lose, monkeypatch):
    import scipy.linalg
    case = band_case(3, 33, 2)
    expected = all_routines(*case)
    lose(monkeypatch)
    try:
        importlib.reload(_lapack)
        assert _lapack._openblas is None
        assert _lapack._scipy is scipy.linalg
        found = all_routines(*case)
    finally:
        monkeypatch.undo()
        importlib.reload(_lapack)
    assert _lapack._openblas is not None
    assert all(map(same_bits, found, expected))


# A fresh interpreter solves with beamload's wrappers before anything has
# imported scipy, then imports scipy.linalg, which maps scipy's own
# OpenBLAS beside numpy's, and compares the two on one band.
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
ab = np.asfortranarray(traj.system.M + traj.system.K)
kd, x = ab.shape[0] - 1, np.arange(ab.shape[1], dtype=float)
c = _lapack.cholesky_banded(ab)
b, y = x.copy(), np.empty_like(x)
_lapack.bound_solve(c, b)()
_lapack.bound_matvec(ab, x, y)()
print("after import scipy.linalg:",
      np.array_equal(c, scipy.linalg.cholesky_banded(ab)),
      np.array_equal(b, lapack.dpbtrs(c, x)[0]),
      np.array_equal(y, blas.dsbmv(kd, 1.0, ab, x)),
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
