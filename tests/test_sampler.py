import dataclasses
import tracemalloc

import numpy as np
import pytest

from rbmlab.errors import ContractError, ParameterError
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape, mean_field_profile
from rbmlab.sampler import (
    ou_evolve,
    sample_band,
    sample_band_batch,
    sample_gue,
)
from rbmlab.seeding import substream_rng

TRIALS = 20_000  # scaled-down moment oracle; the full 1e5-trial version
# runs in the acceptance suite


def _hermitian_by_symmetrizing(rng, n, offdiag_var, diag_var):
    # reference assembly: fill the upper triangle, then add the adjoint
    iu = np.triu_indices(n, k=1)
    re = rng.standard_normal(iu[0].size)
    im = rng.standard_normal(iu[0].size)
    diag = rng.standard_normal(n)
    h = np.zeros((n, n), dtype=complex)
    sig = np.sqrt(np.broadcast_to(np.asarray(offdiag_var, dtype=float), iu[0].shape) / 2.0)
    h[iu] = (re + 1j * im) * sig
    h += h.conj().T
    h[np.diag_indices(n)] = diag * np.sqrt(diag_var)
    return h


def _reference_band(prof, seed, trial):
    n = prof.lattice.N
    iu = np.triu_indices(n, k=1)
    return _hermitian_by_symmetrizing(
        substream_rng(seed, trial), n, prof.s_pairs(iu[0], iu[1]), prof.kernel_flat[0]
    )


@pytest.mark.parametrize(
    "psi,W,d,L",
    [("gaussian", 2.0, 1, 8), ("compact-bump", 3.0, 1, 33), ("gaussian", 2.0, 2, 6),
     ("compact-bump", 2.0, 2, 9), ("mean-field", None, 1, 17),
     ("gaussian", 4.0, 1, 700)],  # row blocks of 93 rows, the last of 49
)
def test_sampler_matches_symmetrizing_assembly(psi, W, d, L):
    lat = TorusLattice(d, L)
    prof = mean_field_profile(lat) if W is None else build_profile(get_shape(psi), W, lat)
    n = lat.N
    for seed, trial in ((1, 0), (7, 3), (2**40 + 5, 11)):
        h = sample_band(prof, seed, trial)
        assert np.array_equal(h.matrix, _reference_band(prof, seed, trial))
        for t in (0.3, 2.0):
            var = (1.0 - np.exp(-t)) / n
            xi = _hermitian_by_symmetrizing(substream_rng(seed + 1, trial), n, var, var)
            want = np.exp(-t / 2.0) * h.matrix + xi
            flowed = ou_evolve(sample_band(prof, seed, trial), t, seed + 1, trial)
            assert np.array_equal(flowed.matrix, want)
        gue = sample_gue(n, seed, trial)
        want = _reference_band(mean_field_profile(TorusLattice(1, n)), seed, trial)
        assert np.array_equal(gue.matrix, want)
        assert gue.provenance.profile_id == f"mean-field:d=1:L={n}:W={n}"
        stack = sample_band_batch(prof, seed, 3, 9)
        assert stack.shape == (6, n, n)
        for t, h in zip(range(3, 9), stack):
            assert np.array_equal(h, _reference_band(prof, seed, t))


def test_sample_band_peak_memory_is_the_output_and_block_buffers():
    # the matrix and block-sized buffers: no N x N variance matrix, no
    # vector of pair scales, no full vector of normals
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(2, 32))
    n = prof.lattice.N
    tracemalloc.start()
    try:
        sample_band(prof, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 16 * n * n, peak / (16 * n * n)


def test_hermitian_exact(small_profile):
    h = sample_band(small_profile, 1, 0).matrix
    assert np.array_equal(h, h.conj().T)
    assert np.all(h.diagonal().imag == 0.0)


def test_bit_reproducible(small_profile):
    a = sample_band(small_profile, 123, 7).matrix
    b = sample_band(small_profile, 123, 7).matrix
    assert np.array_equal(a, b)
    c = sample_band(small_profile, 123, 8).matrix
    assert not np.array_equal(a, c)


def test_zero_profile_gives_zero_matrix(small_profile):
    zero = dataclasses.replace(
        small_profile,
        kernel_fft=np.zeros_like(small_profile.kernel_fft),
        symbol_fft=np.zeros_like(small_profile.symbol_fft),
    )
    assert np.all(sample_band(zero, 5, 0).matrix == 0)


def test_entry_variance_moment_oracle(small_profile):
    S = small_profile.dense_matrix()
    x, y = 0, 2
    vals = np.empty(TRIALS)
    for t in range(TRIALS):
        vals[t] = np.abs(sample_band(small_profile, 99, t).matrix[x, y]) ** 2
    se = vals.std(ddof=1) / np.sqrt(TRIALS)
    assert abs(vals.mean() - S[x, y]) < 5 * se


def test_ou_t0_exact(small_profile):
    h0 = sample_band(small_profile, 1, 0)
    buffer = h0.matrix
    ht = ou_evolve(h0, 0.0, 2, 0)
    assert np.array_equal(ht.matrix, sample_band(small_profile, 1, 0).matrix)
    assert ht.matrix is buffer  # H_t is written over H_0
    assert ht.provenance.flow_time == 0.0
    with pytest.raises(ContractError):
        h0.matrix
    with pytest.raises(ParameterError):
        ou_evolve(sample_band(small_profile, 1, 0), -0.1, 2, 0)


def test_ou_long_time_mean_field_limit(small_profile):
    # t -> infinity: entry variance -> 1/N
    n = small_profile.lattice.N
    x, y = 1, 4
    vals = np.empty(TRIALS)
    for t in range(TRIALS):
        h0 = sample_band(small_profile, 11, t)
        vals[t] = np.abs(ou_evolve(h0, 50.0, 12, t).matrix[x, y]) ** 2
    se = vals.std(ddof=1) / np.sqrt(TRIALS)
    assert abs(vals.mean() - 1.0 / n) < 5 * se


def test_ou_variance_law(small_profile):
    t_flow = 0.3
    n = small_profile.lattice.N
    S = small_profile.dense_matrix()
    x, y = 0, 1
    target = np.exp(-t_flow) * S[x, y] + (1 - np.exp(-t_flow)) / n
    vals = np.empty(TRIALS)
    for t in range(TRIALS):
        h0 = sample_band(small_profile, 21, t)
        vals[t] = np.abs(ou_evolve(h0, t_flow, 22, t).matrix[x, y]) ** 2
    se = vals.std(ddof=1) / np.sqrt(TRIALS)
    assert abs(vals.mean() - target) < 5 * se


def test_ou_semigroup_variance_bookkeeping(small_profile):
    # evolving t then s matches the t+s variance law within Monte Carlo error
    n = small_profile.lattice.N
    S = small_profile.dense_matrix()
    x, y = 2, 5
    t1, t2 = 0.2, 0.4
    target = np.exp(-(t1 + t2)) * S[x, y] + (1 - np.exp(-(t1 + t2))) / n
    vals = np.empty(TRIALS)
    for t in range(TRIALS):
        h0 = sample_band(small_profile, 31, t)
        h1 = ou_evolve(h0, t1, 32, t)
        h2 = ou_evolve(h1, t2, 33, t)
        vals[t] = np.abs(h2.matrix[x, y]) ** 2
    se = vals.std(ddof=1) / np.sqrt(TRIALS)
    assert abs(vals.mean() - target) < 5 * se
    assert ou_evolve(
        ou_evolve(sample_band(small_profile, 1, 0), t1, 2, 0), t2, 3, 0
    ).provenance.flow_time == pytest.approx(t1 + t2)


def test_gue_matches_mean_field_profile():
    h = sample_gue(8, 42, 3)
    assert np.array_equal(h.matrix, h.matrix.conj().T)
    prof = mean_field_profile(TorusLattice(1, 8))
    assert np.array_equal(h.matrix, sample_band(prof, 42, 3).matrix)
    with pytest.raises(ParameterError):
        sample_gue(1, 0, 0)


def test_gue_moment_oracle():
    n = 16
    vals = np.empty(TRIALS // 2)
    for t in range(TRIALS // 2):
        vals[t] = np.abs(sample_gue(n, 7, t).matrix[0, 3]) ** 2
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.0 / n) < 5 * se
