import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmlab import _lapack, spectral
from rbmlab.errors import NumericError
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape
from rbmlab.sampler import HermitianSample, Provenance, sample_band
from rbmlab.seeding import substream_rng

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


def test_blas_info_names_the_kernel(monkeypatch):
    info = _lapack.blas_info()
    assert isinstance(info["kernel"], str) and info["kernel"]
    symbol = _lapack._symbol
    monkeypatch.setattr(_lapack, "_symbol", lambda name: None if "corename" in name else symbol(name))
    assert _lapack.blas_info() == {**info, "kernel": None}


def _dense_tridiagonal(d, e):
    n = d.size
    t = np.diag(d)
    t.flat[1 :: n + 1] = e
    t.flat[n :: n + 1] = e
    return t


@pytest.fixture
def no_symbols(monkeypatch):
    # the drivers are looked up once per process; look them up again
    # under the patched _symbol, and again after it is restored
    monkeypatch.setattr(_lapack, "_symbol", lambda name: None)
    _lapack._dsterf.cache_clear()
    _lapack._zheevd.cache_clear()
    yield
    _lapack._dsterf.cache_clear()
    _lapack._zheevd.cache_clear()


def test_the_tridiagonal_driver_is_found():
    assert _lapack._dsterf() is not None


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    values=st.sampled_from(["normal", "repeated"]),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),  # share of e set to 0: the matrix splits
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_tridiagonal_eigvalsh_is_numpys(n, seed, values, zeros, scale):
    rng = np.random.default_rng(seed)
    if values == "normal":
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    else:
        d, e = rng.choice([-1.0, 0.0, 2.0], n), rng.choice([0.5, 1.0], n - 1)
    d, e = d * scale, e * scale
    e[rng.random(n - 1) < zeros] = 0.0
    kept = d.copy(), e.copy()
    want = np.linalg.eigvalsh(_dense_tridiagonal(d, e))
    assert np.array_equal(_lapack.tridiagonal_eigvalsh(d, e), want)
    assert np.array_equal(d, kept[0]) and np.array_equal(e, kept[1])


def test_tridiagonal_nonzero_info_is_a_numeric_error(monkeypatch):
    def failing(n, d, e, info):
        info._obj.value = 2  # info as dsterf reports an eigenvalue not found

    monkeypatch.setattr(_lapack, "_dsterf", lambda: failing)
    with pytest.raises(NumericError, match="info=2"):
        _lapack.tridiagonal_eigvalsh(np.ones(4), np.ones(3))
    with pytest.raises(NumericError, match="info=2"):
        spectral.gue_eigenvalues(4, 1, 0)


def test_tridiagonal_fallback_without_the_symbol(no_symbols):
    assert _lapack._dsterf() is None and _lapack._zheevd() is None
    rng = np.random.default_rng(3)
    d, e = rng.standard_normal(50), rng.standard_normal(49)
    assert np.array_equal(_lapack.tridiagonal_eigvalsh(d, e), np.linalg.eigvalsh(_dense_tridiagonal(d, e)))
    assert np.array_equal(spectral.gue_eigenvalues(40, 2, 1), _dense_gue_eigenvalues(40, 2, 1))


def _dense_gue_eigenvalues(n, seed, trial):
    # the dense route gue_eigenvalues took before dsterf: the same draws,
    # laid into an n x n tridiagonal matrix for numpy's eigvalsh
    rng = substream_rng(seed, trial)
    scale = 1.0 / np.sqrt(2.0 * n)
    d = rng.standard_normal(n) * (np.sqrt(2.0) * scale)
    e = np.sqrt(rng.chisquare(2.0 * np.arange(n - 1, 0, -1))) * scale
    return np.linalg.eigvalsh(_dense_tridiagonal(d, e))


@pytest.mark.parametrize("n", [2, 3, 400, 1024])
def test_gue_eigenvalues_are_the_dense_routes(n):
    for trial in range(3):
        assert np.array_equal(spectral.gue_eigenvalues(n, 8, trial), _dense_gue_eigenvalues(n, 8, trial))
