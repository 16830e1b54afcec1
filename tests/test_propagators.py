import numpy as np
import pytest

from rbmlab.errors import CapacityError, ParameterError
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape, mean_field_profile
from rbmlab.propagators import (
    PropagatorSet,
    b_kernel,
    b_profile,
    dense_s_plus,
    dense_theta,
    dense_theta_circ,
    s_pm,
    theta_circ,
)
from rbmlab.spectral import semicircle_m


def _pair_flat(lat):
    idx = np.arange(lat.N)
    return lat.diff_flat(idx[:, None], idx[None, :])


@pytest.mark.parametrize(
    "d,L,W", [(1, 64, 4.0), (2, 16, 2.0), (3, 8, 2.0)]
)
def test_fft_vs_dense_oracles(d, L, W, rng):
    lat = TorusLattice(d, L)
    prof = build_profile(get_shape("gaussian"), W, lat)
    pf = _pair_flat(lat)
    for _ in range(3):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.0))
        props = PropagatorSet.build(prof, z)
        assert np.max(np.abs(dense_theta_circ(prof, z) - props.theta_circ_fft.ravel()[pf])) <= 1e-8
        assert np.max(np.abs(dense_theta(prof, z) - props.theta_fft.ravel()[pf])) <= 1e-8
        dsp = dense_s_plus(prof, z)
        assert np.max(np.abs(dsp - props.s_plus_fft.ravel()[pf])) <= 1e-8
        assert np.max(np.abs(dsp.conj() - props.s_minus_fft.ravel()[pf])) <= 1e-8


def test_theta_circ_sums_to_zero_and_symmetry():
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(2, 8))
    tc = theta_circ(prof, 0.3 + 0.4j)
    assert abs(tc.sum()) <= 1e-10
    flipped = tc[np.ix_(*[np.mod(-np.arange(8), 8)] * 2)]
    assert np.max(np.abs(tc - flipped)) <= 1e-10


def test_mean_field_theta_circ_vanishes():
    prof = mean_field_profile(TorusLattice(1, 16))
    assert np.max(np.abs(theta_circ(prof, 0.2 + 0.3j))) == 0.0


def test_theta_shift_closed_form_at_i():
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(1, 16))
    z = 1j
    shift = PropagatorSet.build(prof, z).theta_fft - theta_circ(prof, z)
    expected = (np.sqrt(5) - 1) / 2 / 16
    assert np.max(np.abs(shift - expected)) < 1e-14


def test_theta_full_constancy():
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(1, 32))
    z = 0.1 + 0.7j
    diff = PropagatorSet.build(prof, z).theta_fft - theta_circ(prof, z)
    assert np.ptp(diff) <= 1e-12


def test_s_pm_conjugacy_and_decay():
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 64))
    sp, sm = s_pm(prof, 0.3 + 0.5j)
    assert np.array_equal(sm, sp.conj())
    assert np.max(np.abs(sp - sp[np.mod(-np.arange(64), 64)])) <= 1e-10  # even in x
    dist = prof.lattice.distance_fft.ravel()
    spf = np.abs(sp.ravel())
    # far outside the band (|x| = 4W) the kernel has dropped by three orders
    # of magnitude; 1.45e-3 is the value the direct kernel computation gives
    assert spf[dist == 16].max() <= 2e-3 * spf[0]


def test_b_profile_examples():
    lat7 = TorusLattice(7, 2)
    x = np.zeros(7, dtype=int)
    assert b_profile(lat7, 2.0, x, x) == pytest.approx(1.0 / 128.0)
    lat2 = TorusLattice(2, 8)
    assert b_profile(lat2, 3.0, (0, 0), (0, 0)) == pytest.approx(1.0 / 9.0)
    lat3 = TorusLattice(3, 8)
    vals = [b_profile(lat3, 2.0, (0, 0, 0), (r, 0, 0)) for r in range(0, 5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        b_profile(lat3, 0.5, (0, 0, 0), (1, 0, 0))


def test_b_kernel_matches_pointwise():
    lat = TorusLattice(2, 6)
    bk = b_kernel(lat, 2.0).ravel()
    pf = _pair_flat(lat)
    for i in (0, 5, 17):
        for j in (0, 3, 35):
            assert bk[pf[i, j]] == pytest.approx(
                b_profile(lat, 2.0, lat.coords[i], lat.coords[j])
            )


def test_theta_ratio_stable_under_doubling():
    z = 0.2 + 0.3j
    ratios = []
    for L in (8, 16):
        prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(3, L))
        ratios.append(float((np.abs(theta_circ(prof, z)) / b_kernel(prof.lattice, 2.0)).max()))
    assert ratios[1] < 10 * ratios[0]


def test_dense_oracle_capacity_gate():
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 1024))
    with pytest.raises(CapacityError):
        dense_theta_circ(prof, 0.2 + 0.3j)


def test_imag_identity_at_propagator_z(rng):
    for _ in range(20):
        z = complex(rng.uniform(-1.9, 1.9), rng.uniform(0.01, 1.0))
        m = semicircle_m(z)
        assert abs(abs(m) ** 2 / (1 - abs(m) ** 2) - m.imag / z.imag) < 1e-12
