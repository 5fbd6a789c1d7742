"""The four LAPACK and BLAS routines beamload calls, from scipy's compiled
modules, without importing the scipy.linalg package, which would load
scipy's array-API layer and numpy.f2py with it.

scipy/linalg/_flapack and _fblas are loaded straight from their files, as
`beamload._flapack` and `beamload._fblas`, so no scipy package module is
imported; a later `import scipy.linalg` initialises its own copy.  A
scipy without those files falls back to importing them from
scipy.linalg.  `cholesky_banded` and `solveh_banded` make the checks and
calls of scipy.linalg's functions of those names for a real upper band
of three or more rows, so their results are scipy's bit for bit.
"""

import importlib.machinery
import importlib.util
import os

import numpy as np


def _extension(name):
    """scipy's compiled module linalg/<name>, loaded from its file."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.origin is not None:
        linalg = os.path.join(os.path.dirname(scipy.origin), "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(linalg, name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(
                    f"beamload.{name}", path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                return module
    raise ImportError(f"no compiled scipy.linalg.{name} found")


try:
    _flapack, _fblas = _extension("_flapack"), _extension("_fblas")
except ImportError:
    from scipy.linalg import _fblas, _flapack

dpbtrs, dsbmv = _flapack.dpbtrs, _fblas.dsbmv


def _copied(array, original):
    """scipy's `_datacopied`: whether np.asarray made `array` as a copy of
    `original`, which LAPACK may then overwrite."""
    return array is not original and array.base is None and (
        isinstance(original, np.ndarray) or not hasattr(original,
                                                        "__array__"))


def _check(info, routine):
    """scipy's errors for a nonzero LAPACK `info` from `routine`."""
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}-th argument of internal {routine}")


def cholesky_banded(ab):
    """Upper Cholesky factor, in the same band storage, of the symmetric
    positive definite ab[k + i - j, j] = A[i, j] (LAPACK dpbtrf)."""
    c, info = _flapack.dpbtrf(np.asarray_chkfinite(ab))
    _check(info, "pbtrf")
    return c


def solveh_banded(ab, b):
    """x with A x = b, for the symmetric positive definite A in upper band
    storage ab[k + i - j, j] = A[i, j] of k >= 2 (LAPACK dpbsv)."""
    a1, b1 = np.asarray_chkfinite(ab), np.asarray_chkfinite(b)
    _, x, info = _flapack.dpbsv(a1, b1, overwrite_ab=_copied(a1, ab),
                                overwrite_b=_copied(b1, b))
    _check(info, "pbsv")
    return x
