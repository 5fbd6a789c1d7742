"""The three LAPACK and BLAS routines beamload calls, from the OpenBLAS
that numpy's wheel bundles, through ctypes: `cholesky_banded` (dpbtrf)
and the calls `bound_solve` (dpbtrs) and `bound_matvec` (dsbmv), which
Newmark and the smoothing spline share.

numpy already holds that library in memory, so calling it loads no
second BLAS (scipy's compiled modules would map their own) and imports
no scipy module.  The library uses 64-bit integers and exports the
routines as `scipy_<name>_64_`; each takes its integers by reference
as int64 and, after the Fortran arguments, the length of its one
character argument.  Every array handed to a routine is checked first:
float64, the expected shape, contiguous, and a band in Fortran order.

A numpy without that library, with one built for 32-bit integers, or
without one of its routines (a conda or system-BLAS build) makes this
module call scipy.linalg's public `cholesky_banded`, `lapack.dpbtrs`
and `blas.dsbmv` instead.  So does a library that takes the calls but
not as they are made here: when it binds, the three routines factor,
solve and multiply a fixed band whose results are exact in binary, and
any other result or an error means a changed calling convention.
Either way every result is scipy's bit for bit, for a real upper band,
and `cholesky_banded` raises scipy's errors; the bound calls refuse the
input they would have to copy.
"""

import ctypes
import os

import numpy as np

# the number of Fortran arguments of each routine; all but the leading
# character are passed by reference
N_ARGS = {"dpbtrf": 6, "dpbtrs": 9, "dsbmv": 11}
_UPPER = ctypes.c_char_p(b"U")
# the Fortran length of that character, passed after the arguments
_ONE = ctypes.c_size_t(1)


def _numpy_openblas():
    """The routines of N_ARGS from numpy's bundled OpenBLAS, by name,
    with their argument types set, and the library's config string.
    Raises OSError when numpy bundles no such library or one whose
    config lacks USE64BITINT (its integers would be 32-bit), and
    AttributeError when it lacks a routine."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    found = sorted(name for name in os.listdir(libs)
                   if name.startswith("libscipy_openblas64_"))
    if not found:
        raise OSError(f"no OpenBLAS in {libs}")
    lib = ctypes.CDLL(os.path.join(libs, found[0]))
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes, get_config.restype = (), ctypes.c_char_p
    config = get_config().decode()
    if "USE64BITINT" not in config.split():
        raise OSError(f"{found[0]} does not take 64-bit integers: {config}")
    routines = {}
    for name, n_args in N_ARGS.items():
        routine = getattr(lib, f"scipy_{name}_64_")
        routine.argtypes = ((ctypes.c_char_p,)
                            + (ctypes.c_void_p,) * (n_args - 1)
                            + (ctypes.c_size_t,))
        routine.restype = None
        routines[name] = routine
    return routines, config


def _ref(value):
    """A pointer to `value`, a ctypes number or a numpy array's data, that
    keeps `value` alive.  Every pointer is a c_void_p, which ctypes
    passes on without converting it."""
    if isinstance(value, np.ndarray):
        return value.ctypes.data_as(ctypes.c_void_p)
    return ctypes.cast(ctypes.pointer(value), ctypes.c_void_p)


def _int(value):
    return _ref(ctypes.c_int64(value))


def _band(ab):
    """(n, kd) of a float64 band in Fortran order (kd + 1, n) with kd >= 0:
    the only bands handed to a routine."""
    if not (isinstance(ab, np.ndarray) and ab.dtype == np.float64
            and ab.ndim == 2 and ab.shape[0] >= 1
            and ab.flags.f_contiguous):
        raise ValueError("a band must be a 2-D float64 array in Fortran "
                         "order")
    return ab.shape[1], ab.shape[0] - 1


def _vector(x, n):
    """Check that x is a contiguous float64 vector of length n."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.shape == (n,) and x.flags.c_contiguous):
        raise ValueError(f"a vector must be a contiguous float64 array of "
                         f"length {n}")


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
    if _openblas is None:
        return _scipy.cholesky_banded(ab)
    c = np.array(np.asarray_chkfinite(ab), dtype=np.float64, order="F")
    n, kd = _band(c)
    info = ctypes.c_int64()
    _openblas["dpbtrf"](_UPPER, _int(n), _int(kd), _ref(c), _int(kd + 1),
                        _ref(info), _ONE)
    _check(info.value, "pbtrf")
    return c


def bound_solve(cb, b):
    """A call that overwrites the vector b with the solution x of A x = b,
    for the upper banded Cholesky factor cb of A (LAPACK dpbtrs).  Its
    arguments are bound once, so that each solve on the buffer b costs one
    foreign call.  cb and b are used in place, never copied, so they must
    be float64, contiguous and, for cb, in Fortran order: a converted copy
    would not see what the caller writes into b between calls."""
    n, kd = _band(cb)
    _vector(b, n)
    if _openblas is None:
        def solve():
            x, info = _scipy.lapack.dpbtrs(cb, b)
            _check(info, "pbtrs")
            b[:] = x
        return solve
    info = ctypes.c_int64()
    routine = _openblas["dpbtrs"]
    args = (_UPPER, _int(n), _int(kd), _int(1), _ref(cb), _int(kd + 1),
            _ref(b), _int(max(n, 1)), _ref(info), _ONE)

    def solve():
        routine(*args)
        _check(info.value, "pbtrs")
    return solve


def bound_matvec(ab, x, y):
    """A call that overwrites the vector y with A x, for the symmetric A in
    upper band storage ab (BLAS dsbmv), with its arguments bound once and
    its arrays used in place, as in `bound_solve`.  With beta = 0 BLAS
    sets y to A x whatever y held, as scipy's dsbmv does to a new y."""
    n, kd = _band(ab)
    _vector(x, n)
    _vector(y, n)
    if _openblas is None:
        def matvec():
            y[:] = _scipy.blas.dsbmv(kd, 1.0, ab, x)
        return matvec
    routine = _openblas["dsbmv"]
    alpha, beta = ctypes.c_double(1.0), ctypes.c_double(0.0)
    args = (_UPPER, _int(n), _int(kd), _ref(alpha), _ref(ab), _int(kd + 1),
            _ref(x), _int(1), _ref(beta), _ref(y), _int(1), _ONE)

    def matvec():
        routine(*args)
    return matvec


def _exact_on_probe():
    """Whether the three routines, called as above, give the exact
    factor, solution and product of the band A = [[4, 2, 0], [2, 5, 2],
    [0, 2, 5]] = U'U, U = [[2, 1, 0], [0, 2, 1], [0, 0, 2]]: every
    intermediate is a small integer, so any correct library gets these
    bits, and a wrong `uplo`, integer or argument order does not."""
    ab = np.array([[0.0, 2.0, 2.0], [4.0, 5.0, 5.0]], order="F")
    x, y = np.array([1.0, 2.0, 3.0]), np.empty(3)
    b = np.array([8.0, 18.0, 19.0])
    try:
        cb = cholesky_banded(ab)
        bound_solve(cb, b)()
        bound_matvec(ab, x, y)()
    except (ValueError, np.linalg.LinAlgError):
        return False
    return (np.array_equal(cb, [[0.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
            and np.array_equal(b, x)
            and np.array_equal(y, [8.0, 18.0, 19.0]))


try:
    # CONFIG is the library's build string, None on the fallback
    _openblas, CONFIG = _numpy_openblas()
    if not _exact_on_probe():
        raise OSError("numpy's OpenBLAS does not take the calls as made")
except (OSError, AttributeError):
    from scipy import linalg as _scipy
    _openblas = CONFIG = None
