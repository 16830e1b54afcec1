"""LAPACK through ctypes, in the OpenBLAS library numpy already loads
(numpy.libs/libscipy_openblas64_*.so, 64-bit integers, symbols suffixed
64_), for what numpy does not offer: a factorization in the caller's own
buffer, the eigenvalues of a tridiagonal matrix from its two vectors, and
the BLAS thread count and kernel.

numpy's eigvalsh copies its input into a Fortran-order buffer before it
calls zheevd.  hermitian_eigvalsh calls the same driver, JOBZ='N' and
UPLO='L', on the C-order matrix itself: LAPACK reads it as its transpose,
the conjugate of a Hermitian matrix, which has the same eigenvalues, and
on every matrix tests/test_lapack.py draws the result is bitwise numpy's
(UPLO='U' is not).  The matrix is destroyed.

numpy's eigvalsh of a real symmetric matrix (dsyevd, JOBZ='N') reduces it
to tridiagonal form and hands the two vectors to dsterf.  On a matrix that
is already tridiagonal every Householder reflector of that reduction is
the identity, so tridiagonal_eigvalsh, which calls dsterf on the vectors
themselves, returns numpy's eigenvalues bit for bit, without the dense
N x N matrix, numpy's copy of it or the O(N^3) reduction.

The library and its symbols are looked up on first use; where they are
missing (another numpy build), the eigenvalue routines fall back to
np.linalg.eigvalsh and blas_info returns None.
"""

import ctypes
import functools
import glob
import os

import numpy as np

from .errors import ContractError, NumericError

_INT = ctypes.c_int64
_IP = ctypes.POINTER(_INT)
_P = ctypes.c_void_p
# zheevd(JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, RWORK, LRWORK, IWORK, LIWORK,
# INFO), then the hidden lengths of the two character arguments
_ZHEEVD_ARGS = [ctypes.c_char_p, ctypes.c_char_p, _IP, _P, _IP, _P, _P, _IP, _P, _IP, _P, _IP, _IP,
                ctypes.c_size_t, ctypes.c_size_t]
_DSTERF_ARGS = [_IP, _P, _P, _IP]  # dsterf(N, D, E, INFO)


@functools.cache
def _library():
    """(file name, ctypes handle) of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            return os.path.basename(path), ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _symbol(name):
    lib = _library()
    return None if lib is None else getattr(lib[1], name, None)


@functools.cache
def _zheevd():
    f = _symbol("scipy_zheevd_64_")
    if f is not None:
        f.argtypes, f.restype = _ZHEEVD_ARGS, None
    return f


@functools.cache
def _dsterf():
    f = _symbol("scipy_dsterf_64_")
    if f is not None:
        f.argtypes, f.restype = _DSTERF_ARGS, None
    return f


def _query(name, restype):
    """The no-argument OpenBLAS query name() as restype, or None."""
    f = _symbol(name)
    if f is None:
        return None
    f.argtypes, f.restype = [], restype
    return f()


def blas_info():
    """{"library": file name, "threads": OpenBLAS thread count in effect,
    "kernel": the runtime kernel OpenBLAS chose for this CPU (e.g.
    "SkylakeX"), each None where its query is missing}, or None when
    numpy's BLAS is not the bundled OpenBLAS."""
    lib = _library()
    if lib is None:
        return None
    threads = _query("scipy_openblas_get_num_threads64_", ctypes.c_int)
    kernel = _query("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "library": lib[0],
        "threads": None if threads is None else int(threads),
        "kernel": None if kernel is None else kernel.decode(),
    }


def tridiagonal_eigvalsh(d, e):
    """Ascending eigenvalues of the real symmetric tridiagonal matrix with
    diagonal d (n entries) and off-diagonal e (n - 1 entries), by dsterf
    on copies of the two vectors, which are left unchanged.  A nonzero
    info raises NumericError.  Equal bit for bit to np.linalg.eigvalsh of
    the dense matrix, which is the fallback where dsterf is missing."""
    d = np.array(d, dtype=np.float64)  # copies: dsterf overwrites both
    e = np.array(e, dtype=np.float64)
    n = d.size
    if d.shape != (n,) or e.shape != (max(n - 1, 0),):
        raise ContractError(f"dsterf needs n and n - 1 entries, got {d.shape} and {e.shape}")
    dsterf = _dsterf()
    if dsterf is None:
        t = np.diag(d)
        t.flat[1 :: n + 1] = e  # superdiagonal
        t.flat[n :: n + 1] = e  # subdiagonal
        return np.linalg.eigvalsh(t)
    info = _INT(0)
    dsterf(_INT(n), d.ctypes.data, e.ctypes.data, ctypes.byref(info))
    if info.value:
        raise NumericError(f"dsterf returned info={info.value} (N={n})")
    return d


def hermitian_eigvalsh(a):
    """Ascending eigenvalues of the complex Hermitian matrix a, by zheevd
    (JOBZ='N', UPLO='L') in a's buffer, which it overwrites; a must be a
    C-order complex128 square array.  A nonzero info raises NumericError.
    Beside a, only LAPACK's workspace of about 33 N entries is allocated."""
    zheevd = _zheevd()
    if zheevd is None:
        return np.linalg.eigvalsh(a)
    n = a.shape[0]
    if a.shape != (n, n) or a.dtype != np.complex128 or not a.flags.c_contiguous:
        raise ContractError(f"zheevd needs a C-order complex128 square matrix, got {a.dtype} {a.shape}")
    w = np.empty(n)
    info = _INT(0)

    def call(work, rwork, iwork, query=False):
        # a query (sizes -1) returns the workspace sizes in work, rwork, iwork
        lwork, lrwork, liwork = (-1, -1, -1) if query else (work.size, rwork.size, iwork.size)
        zheevd(
            b"N", b"L", _INT(n), a.ctypes.data, _INT(max(n, 1)), w.ctypes.data,
            work.ctypes.data, _INT(lwork), rwork.ctypes.data, _INT(lrwork),
            iwork.ctypes.data, _INT(liwork), ctypes.byref(info), 1, 1,
        )
        if info.value:
            raise NumericError(f"zheevd returned info={info.value} (N={n})")

    work, rwork, iwork = np.empty(1, dtype=complex), np.empty(1), np.empty(1, dtype=np.int64)
    call(work, rwork, iwork, query=True)
    call(
        np.empty(int(work[0].real), dtype=complex),
        np.empty(int(rwork[0])),
        np.empty(int(iwork[0]), dtype=np.int64),
    )
    return w
