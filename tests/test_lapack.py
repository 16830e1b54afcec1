import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmlab import _lapack, spectral
from rbmlab.errors import NumericError
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape
from rbmlab.sampler import HermitianSample, Provenance, sample_band

# OpenBLAS's block size for the Hermitian tridiagonal reduction is 32;
# sizes up to 96 take the blocked path for several panels
_MAX_N = 96


def _hermitian(n, seed, scale):
    # (a + a^*) / 2 is Hermitian exactly: both triangles and the real
    # diagonal agree bit for bit
    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return np.ascontiguousarray((a + a.conj().T) / 2)


def _sample(mat):
    return HermitianSample(TorusLattice(1, mat.shape[0]), mat, Provenance(0, 0, 0.0, "fixed"))


def test_the_in_place_driver_is_found():
    # the rest of this module tests the ctypes route, not the fallback
    assert _lapack._zheevd() is not None


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, _MAX_N),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_in_place_eigvalsh_is_numpys(n, seed, scale):
    a = _hermitian(n, seed, scale)
    want = np.linalg.eigvalsh(a)
    assert np.array_equal(_lapack.hermitian_eigvalsh(a), want)


@pytest.mark.parametrize("mat", [np.zeros((5, 5)), np.eye(40), np.diag(np.arange(70.0)[::-1])])
def test_in_place_eigvalsh_of_degenerate_and_diagonal_matrices(mat):
    a = np.ascontiguousarray(mat, dtype=complex)
    assert np.array_equal(_lapack.hermitian_eigvalsh(a.copy()), np.linalg.eigvalsh(a))


@pytest.mark.parametrize("L", [7, 33, 400])
def test_in_place_eigvalsh_of_band_draws(L):
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, L))
    want = np.linalg.eigvalsh(sample_band(prof, 3, 0).matrix)
    assert np.array_equal(spectral.eigenvalues(sample_band(prof, 3, 0)), want)


def test_fallback_without_the_symbol(monkeypatch):
    monkeypatch.setattr(_lapack, "_zheevd", lambda: None)
    a = _hermitian(40, 5, 1.0)
    kept = a.copy()
    assert np.array_equal(_lapack.hermitian_eigvalsh(a), np.linalg.eigvalsh(kept))
    assert np.array_equal(a, kept)  # numpy works on its own copy
    assert np.array_equal(spectral.eigenvalues(_sample(a)), np.linalg.eigvalsh(kept))


@pytest.mark.parametrize("n", [1, 2, 3, 40, _MAX_N])
@pytest.mark.parametrize("where", ["first", "last", "off"])
def test_a_nan_entry_raises(n, where):
    # a NaN Hermitian pair (or diagonal entry) never comes back as NaN or
    # finite eigenvalues; zheevd at n = 2 returns finite ones for a NaN on
    # the diagonal, so the entries are checked before the call
    a = _hermitian(n, 11, 1.0)
    i, j = {"first": (0, 0), "last": (n - 1, n - 1), "off": (n - 1, 0)}[where]
    a[i, j] = a[j, i] = np.nan
    with pytest.raises(NumericError):
        spectral.eigenvalues(_sample(a.copy()))
    with pytest.raises(NumericError):
        spectral.eigensolve(_sample(a))


def test_nonzero_info_is_a_numeric_error():
    # past the entry check, LAPACK itself reports a NaN through info
    a = _hermitian(40, 12, 1.0)
    a[0, 0] = np.nan
    with pytest.raises(NumericError, match="info="):
        _lapack.hermitian_eigvalsh(a)


def test_blas_info_names_the_library_and_its_threads(monkeypatch):
    info = _lapack.blas_info()
    assert info["library"].startswith("libscipy_openblas64_")
    assert isinstance(info["threads"], int) and info["threads"] >= 1
    monkeypatch.setattr(_lapack, "_library", lambda: None)
    assert _lapack.blas_info() is None
