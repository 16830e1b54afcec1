import numpy as np
import pytest
from hypothesis import given, strategies as st

from rbmlab.errors import InvalidCoordinateError
from rbmlab.lattice import TorusLattice, representative, torus_distance


def test_site_count():
    assert TorusLattice(3, 4).N == 64
    assert TorusLattice(1, 8).N == 8


def test_coordinate_range():
    lat = TorusLattice(1, 8)
    assert lat.coords.min() == -3 and lat.coords.max() == 4
    lat5 = TorusLattice(1, 5)
    assert lat5.coords.min() == -2 and lat5.coords.max() == 2


def test_row_block_scans_tile_the_kernel_once(monkeypatch):
    # _draw and local_law_ratios gather many row blocks of one kernel from
    # one tiled reflection; rows gathered through it equal kernel_matrix's
    from rbmlab import sampler, spectral, stats
    from rbmlab.profile import build_profile, get_shape

    lat = TorusLattice(2, 32)
    kern = np.random.default_rng(5).standard_normal((32, 32))
    rows = np.arange(100, 300)
    assert np.array_equal(lat.kernel_rows(kern)(rows), lat.kernel_matrix(kern, rows))
    assert np.array_equal(lat.kernel_rows(kern)(), lat.kernel_matrix(kern))
    prof = build_profile(get_shape("gaussian"), 3.0, lat)
    calls = []
    reflect = TorusLattice.reflect
    monkeypatch.setattr(TorusLattice, "reflect", lambda self, k: calls.append(1) or reflect(self, k))
    sample = sampler.sample_band(prof, 4, 0)
    assert len(calls) == 1
    ctx = spectral.resolvent(sample, 0.2 + 0.3j, prof, check=False)
    stats.local_law_ratios(ctx)
    assert len(calls) == 2


@pytest.mark.parametrize("d, L", [(1, 7), (1, 8), (2, 5), (2, 6), (3, 3), (3, 4)])
def test_kernel_matrix_matches_pair_index(d, L):
    lat = TorusLattice(d, L)
    kern = np.random.default_rng(d * L).standard_normal((L,) * d)
    idx = np.arange(lat.N)
    want = kern.ravel()[lat.diff_flat(idx[:, None], idx[None, :])]
    assert np.array_equal(lat.kernel_matrix(kern), want)
    rows = idx[1::3]
    assert np.array_equal(lat.kernel_matrix(kern, rows), want[rows])
    assert np.array_equal(lat.kernel_matrix(kern.ravel(), rows=lat.N - 1), want[-1])


@pytest.mark.parametrize("d, L", [(1, 7), (1, 8), (2, 5), (3, 4)])
def test_reflect_and_convolve_match_kernel_matrix(d, L):
    lat = TorusLattice(d, L)
    rng = np.random.default_rng(d * L)
    kern = rng.standard_normal((L,) * d)
    K = lat.kernel_matrix(kern)
    assert np.array_equal(lat.kernel_matrix(lat.reflect(kern)), K.T)
    v = rng.standard_normal(lat.N) + 1j * rng.standard_normal(lat.N)
    assert np.allclose(lat.convolve(kern, v), K @ v, rtol=0, atol=1e-12)
    real = lat.convolve(kern, v.real)
    assert np.isrealobj(real) and np.allclose(real, K @ v.real, rtol=0, atol=1e-12)


def test_representative_examples():
    lat = TorusLattice(1, 8)
    assert representative(4, -3, lat) == np.array([-1])
    assert np.all(representative(2, 2, lat) == 0)
    lat2 = TorusLattice(2, 6)
    assert np.array_equal(representative((3, 0), (-2, 0), lat2), [-1, 0])


def test_distance_examples():
    lat = TorusLattice(1, 8)
    assert torus_distance(3, 3, lat) == 0
    assert torus_distance(4, -3, lat) == 1
    assert torus_distance((3, 2), (-2, 0), TorusLattice(2, 6)) == 2


def test_invalid_coordinates_rejected():
    lat = TorusLattice(1, 8)
    with pytest.raises(InvalidCoordinateError):
        representative(5, 0, lat)  # 5 outside (-4, 4]
    with pytest.raises(InvalidCoordinateError):
        torus_distance(-4, 0, lat)  # -4 outside (-4, 4]


@given(
    d=st.integers(1, 3),
    L=st.integers(2, 9),
    data=st.data(),
)
def test_representative_properties(d, L, data):
    lat = TorusLattice(d, L)
    lo = -(L // 2) + (1 if L % 2 == 0 else 0)
    hi = L // 2
    coord = st.lists(st.integers(lo, hi), min_size=d, max_size=d)
    x = np.array(data.draw(coord))
    y = np.array(data.draw(coord))
    r = representative(x, y, lat)
    # lands in the canonical box and differs from x - y by a lattice vector
    assert np.all(r > -L / 2) and np.all(r <= L / 2)
    assert np.all((x - y - r) % L == 0)
    # antisymmetry on the torus
    assert np.all((representative(y, x, lat) + r) % L == 0)


@given(d=st.integers(1, 3), L=st.integers(2, 9), data=st.data())
def test_distance_properties(d, L, data):
    lat = TorusLattice(d, L)
    lo = -(L // 2) + (1 if L % 2 == 0 else 0)
    hi = L // 2
    coord = st.lists(st.integers(lo, hi), min_size=d, max_size=d)
    x, y, w = (np.array(data.draw(coord)) for _ in range(3))
    dxy = torus_distance(x, y, lat)
    assert dxy == torus_distance(y, x, lat)
    assert dxy <= L // 2
    assert torus_distance(x, w, lat) <= dxy + torus_distance(y, w, lat)
