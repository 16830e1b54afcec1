import numpy as np
import pytest

from rbmlab.errors import (
    HalfPlaneError,
    InsufficientSamplesError,
    NumericError,
    ParameterError,
)
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape, mean_field_profile
from rbmlab.sampler import HermitianSample, Provenance, sample_band, sample_gue
from rbmlab import spectral
from rbmlab.spectral import (
    ResolventContext,
    eigensolve,
    eigenvalues,
    gue_eigenvalues,
    resolvent,
    resolvent_from_spectrum,
    second_order_residual,
    second_order_terms,
    semicircle_m,
    t_three,
    ward_residual,
    zero_mode_split,
)
from rbmlab.propagators import PropagatorSet
from rbmlab.stats import gap_ratio_mean


def _sample_from_matrix(mat):
    mat = np.asarray(mat, dtype=complex)
    return HermitianSample(TorusLattice(1, mat.shape[0]), mat, Provenance(0, 0, 0.0, "fixed"))


def test_semicircle_m_closed_form():
    m = semicircle_m(1j)
    assert abs(m - 1j * (np.sqrt(5) - 1) / 2) < 1e-14
    assert abs(semicircle_m(1e-4j) - 1j) < 1e-4


def test_semicircle_m_equation_and_imag_identity():
    z = 0.3 + 0.1j
    m = semicircle_m(z)
    assert abs(m * m + z * m + 1) < 1e-12
    assert abs(abs(m) ** 2 / (1 - abs(m) ** 2) - m.imag / z.imag) < 1e-12


def test_semicircle_m_branch_everywhere(rng):
    zs = rng.uniform(-3, 3, 1000) + 1j * rng.uniform(1e-3, 2, 1000)
    ms = semicircle_m(zs)
    assert np.all(ms.imag > 0)
    assert np.max(np.abs(ms * ms + zs * ms + 1)) < 1e-12
    with pytest.raises(HalfPlaneError):
        semicircle_m(0.5 - 0.1j)


def test_resolvent_trivial_cases():
    z = 0.3 + 0.2j
    ctx = resolvent(_sample_from_matrix([[0.7]]), z)
    assert abs(ctx.G[0, 0] - 1.0 / (0.7 - z)) < 1e-14
    ctx0 = resolvent(_sample_from_matrix(np.zeros((4, 4))), z)
    assert np.max(np.abs(ctx0.G + np.eye(4) / z)) < 1e-14


def test_resolvent_residual(medium_profile):
    ctx = resolvent(sample_band(medium_profile, 17, 0), 0.3 + 0.1j, medium_profile)
    n = ctx.N
    resid = np.max(np.abs((ctx.sample.matrix - ctx.z * np.eye(n)) @ ctx.G - np.eye(n)))
    assert resid <= 1e-10 * (1 + np.max(np.abs(ctx.G)))


def test_resolvent_matches_inverse_of_shifted_matrix(medium_profile):
    cases = [(sample_band(medium_profile, 5, 0), 0.3 + 0.1j),
             (sample_band(medium_profile, 5, 1), -1.2 + 0.05j),
             (sample_gue(32, 6, 0), -0.4 + 1.0j)]
    for s, z in cases:
        n = s.lattice.N
        want = np.linalg.inv(s.matrix - z * np.eye(n))
        assert np.array_equal(resolvent(s, z).G, want)


@pytest.mark.parametrize("d,L", [(1, 129), (1, 300), (2, 16), (2, 23), (0, 333)])
def test_block_resolvent_matches_lapack_above_cutoff(d, L):
    # d = 0 stands for a GUE draw of size L; odd and even splits both occur
    if d:
        prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(d, L))
        s = sample_band(prof, 11, 0)
    else:
        s = sample_gue(L, 12, 0)
    n = s.lattice.N
    assert n > spectral._BLOCK_MIN
    for E in (0.3, -1.9, 2.6):
        for eta in (1e-3, 0.1, 1.0):
            z = complex(E, eta)
            a = s.matrix - z * np.eye(n)
            G = resolvent(s, z).G  # check=True: the residual bound holds
            want = np.linalg.inv(a)
            gmax = np.max(np.abs(want))
            # either inverse is off by ~eps * cond(H - z) relative; at
            # eta = 1e-3 in the bulk cond_1 reaches 2e4 and the two differ
            # by up to 6e-16 * cond_1 * (1 + max|G|)
            cond1 = np.linalg.norm(a, 1) * np.linalg.norm(want, 1)
            tol = 1e-12 if eta >= 0.1 else max(1e-12, 1e-14 * cond1)
            assert np.max(np.abs(G - want)) <= tol * (1 + gmax), (E, eta)
            resid = np.max(np.abs(a @ G - np.eye(n)))
            assert resid <= spectral._RESIDUAL_TOL * (1 + np.max(np.abs(G)))


def test_block_inverse_of_a_stack():
    n = 2 * spectral._BLOCK_MIN + 3
    zs = np.array([0.2 + 0.05j, -1.0 + 0.5j])
    stack = np.stack([sample_gue(n, 13, t).matrix for t in range(2)])
    idx = np.arange(n)
    stack[:, idx, idx] -= zs[:, None]
    G = spectral._block_inv(stack)
    want = np.linalg.inv(stack)
    assert G.shape == stack.shape
    assert np.max(np.abs(G - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


def test_ward_sentinel_accepts_resolvents_and_rejects_corruption():
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 200))
    ctx = resolvent(sample_band(prof, 14, 0), 0.3 + 0.01j, prof)
    assert 0.0 <= ctx.ward_dev <= 1e-9
    G = ctx.G
    bumped, flipped, holed = G.copy(), G.copy(), G.copy()
    bumped[3, 5] += 1e-3 * np.abs(G).max()
    flipped[7, 7] = G[7, 7].conj()  # Im G_77 < 0
    holed[0, 9] = np.nan
    for bad in (bumped, flipped, holed, G * (1.0 + 1e-4)):
        with pytest.raises(NumericError, match="Ward sentinel"):
            ResolventContext(ctx.z, ctx.m, bad, ctx.sample, prof).ward_dev


def test_resolvent_never_returns_a_g_that_fails_the_ward_sentinel(monkeypatch):
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 200))
    clean_inv = spectral._block_inv
    monkeypatch.setattr(spectral, "_block_inv", lambda a: clean_inv(a) * (1.0 + 1e-4))
    with pytest.raises(NumericError, match="Ward sentinel"):
        resolvent(sample_band(prof, 14, 0), 0.3 + 0.01j, prof, check=False)


def test_ward_identity_1x1_and_diagonal_case(medium_profile):
    z = 0.3 + 0.1j
    ctx1 = resolvent(_sample_from_matrix([[0.4]]), z)
    assert ward_residual(ctx1) < 1e-15
    ctx = resolvent(sample_band(medium_profile, 3, 1), z, medium_profile)
    assert ward_residual(ctx) <= 1e-9
    col = np.sum(np.abs(ctx.G[:, 5]) ** 2)
    assert abs(col - ctx.G[5, 5].imag / ctx.eta) < 1e-9


def test_t_three_against_brute_force():
    lat = TorusLattice(1, 16)
    prof = build_profile(get_shape("gaussian"), 2.0, lat)
    ctx = resolvent(sample_band(prof, 8, 0), 0.2 + 0.4j, prof)
    S = prof.dense_matrix()
    G = ctx.G
    mm = abs(ctx.m) ** 2
    for a, b1, b2 in [(0, 1, 3), (5, 5, 5), (2, 9, 14)]:
        brute = mm * sum(S[a, x] * G[x, b1] * np.conj(G[x, b2]) for x in range(16))
        assert abs(t_three(ctx, a, b1, b2) - brute) < 1e-12


def test_t_three_diagonal_cases(small_profile):
    z = 0.2 + 0.5j
    ctx = resolvent(sample_band(small_profile, 9, 0), z, small_profile)
    val = t_three(ctx, 3, 6, 6)
    assert val.imag == pytest.approx(0.0, abs=1e-15)
    assert val.real >= 0.0
    # H = 0: G = -I/z, so T_{a,b1b2} = |m|^2 s_ab1 delta_b1b2 / |z|^2
    zero_ctx = ResolventContext(
        z, ctx.m, -np.eye(8, dtype=complex) / z, ctx.sample, small_profile
    )
    S = small_profile.dense_matrix()
    mm = abs(ctx.m) ** 2
    assert abs(t_three(zero_ctx, 0, 2, 2) - mm * S[0, 2] / abs(z) ** 2) < 1e-14
    assert abs(t_three(zero_ctx, 0, 2, 3)) < 1e-15


def test_zero_mode_split(small_profile):
    ctx = resolvent(sample_band(small_profile, 4, 2), 0.2 + 0.5j, small_profile)
    n = ctx.N
    for sites in [(0, 1, 3), (2, 5, 5), (0, 0, 0)]:
        tc, zm = zero_mode_split(ctx, *sites)
        tt = t_three(ctx, *sites)
        assert abs(tt - (tc + zm)) <= 1e-12 * abs(tt)
    # b1 = b2: the zero mode is the real diagonal form
    _, zm = zero_mode_split(ctx, 0, 5, 5)
    expected = abs(ctx.m) ** 2 * ctx.G[5, 5].imag / (n * ctx.eta)
    assert abs(zm - expected) < 1e-15
    # averaging the centered part against the uniform vector gives zero
    total = sum(zero_mode_split(ctx, a, 1, 3)[0] for a in range(n))
    assert abs(total) < 1e-10


def test_second_order_terms_consistency(small_profile):
    z = 0.2 + 0.5j
    ctx = resolvent(sample_band(small_profile, 13, 5), z, small_profile)
    theta_row = PropagatorSet.build(small_profile, z).theta_circ_at(0, np.arange(8))
    T, lead, zm, corr = second_order_terms(ctx, theta_row, 0, 1, 3)
    assert abs(T - t_three(ctx, 0, 1, 3)) < 1e-14
    tc, zm2 = zero_mode_split(ctx, 0, 1, 3)
    assert abs(zm - zm2) < 1e-14
    # the residual is the fluctuation part; it need not vanish per draw
    assert np.isfinite(abs(T - lead - zm - corr))


def test_second_order_residual_smoke_and_validation(small_profile):
    [res] = second_order_residual(small_profile, 0.2 + 0.5j, [(0, 1, 3)], 100, seed=5)
    assert np.isfinite(res.mean.real) and np.isfinite(res.stderr_re)
    assert res.trials == 100
    with pytest.raises(InsufficientSamplesError):
        second_order_residual(small_profile, 0.2 + 0.5j, [(0, 1, 3)], 99, seed=5)


def test_second_order_residual_mean_field():
    prof = mean_field_profile(TorusLattice(1, 8))
    [res] = second_order_residual(prof, 0.2 + 0.5j, [(0, 1, 3)], 4000, seed=6)
    zr, zi = res.zscores
    assert zr <= 5 and zi <= 5


_TRIPLES = [(0, 1, 3), (0, 0, 0), (2, 5, 5)]  # a = 0 twice


def test_second_order_residual_matches_per_trial_oracle(small_profile):
    z, trials, seed = 0.2 + 0.5j, 300, 21
    results = second_order_residual(small_profile, z, _TRIPLES, trials, seed)
    resid = np.empty((len(_TRIPLES), trials), dtype=complex)
    props = PropagatorSet.build(small_profile, z)
    for t in range(trials):
        ctx = resolvent(sample_band(small_profile, seed, t), z, small_profile, check=False)
        for i, (a, b1, b2) in enumerate(_TRIPLES):
            theta_row = props.theta_circ_at(a, np.arange(8))
            T, lead, zm, corr = second_order_terms(ctx, theta_row, a, b1, b2)
            resid[i, t] = T - lead - zm - corr
    assert len(results) == len(_TRIPLES)
    for res, r in zip(results, resid):
        assert res.trials == trials
        assert abs(res.mean - r.mean()) <= 1e-12 * abs(r.mean())
        assert res.stderr_re == pytest.approx(np.sqrt(r.real.var() / trials), rel=1e-12)
        assert res.stderr_im == pytest.approx(np.sqrt(r.imag.var() / trials), rel=1e-12)


def test_second_order_residual_same_for_any_worker_count(small_profile):
    one = second_order_residual(small_profile, 0.2 + 0.5j, _TRIPLES, 300, seed=4, workers=1)
    two = second_order_residual(small_profile, 0.2 + 0.5j, _TRIPLES, 300, seed=4, workers=2)
    assert one == two


def test_second_order_residual_draws_and_inverts_each_trial_once(small_profile, monkeypatch):
    draws, inverted = [], []
    sample = spectral.sample_band_batch
    block_inv = spectral._block_inv

    def counting_sample(prof, seed, t0, t1):
        draws.extend(range(t0, t1))
        return sample(prof, seed, t0, t1)

    def counting_inv(a):
        inverted.append(a.shape[0])
        return block_inv(a)

    monkeypatch.setattr(spectral, "sample_band_batch", counting_sample)
    monkeypatch.setattr(spectral, "_block_inv", counting_inv)
    second_order_residual(small_profile, 0.2 + 0.5j, _TRIPLES, 200, seed=8)
    assert sorted(draws) == list(range(200))
    assert sum(inverted) == 200


@pytest.mark.parametrize("sites", [[(-1, 0, 0)], [(0, 1, 8)], [(0, 1)], []])
def test_second_order_residual_rejects_sites_off_the_lattice(small_profile, sites):
    with pytest.raises(ParameterError):
        second_order_residual(small_profile, 0.2 + 0.5j, sites, 100, seed=1)


def test_chunk_moments_merge_stably_under_a_common_offset():
    rng = np.random.default_rng(9)
    x = 1e8 + rng.standard_normal(1000) + 1j * (-3e8 + 2.0 * rng.standard_normal(1000))
    parts = [spectral._moments(x[a:b]) for a, b in ((0, 1), (1, 300), (300, 1000))]
    n, mean, m2 = parts[0]
    for p in parts[1:]:
        n, mean, m2 = spectral._merge_moments((n, mean, m2), p)
    assert n == x.size
    assert mean == pytest.approx(x.mean(), rel=1e-15)
    assert m2[0] / n == pytest.approx(np.var(x.real), rel=1e-9)
    assert m2[1] / n == pytest.approx(np.var(x.imag), rel=1e-9)


def test_eigensolve_examples():
    spec = eigensolve(_sample_from_matrix(np.diag([1.0, 2.0, 3.0])))
    assert np.allclose(spec.eigenvalues, [1, 2, 3])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(3))


def test_eigenvalues_match_eigensolve():
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 64))
    for s in (sample_band(prof, 3, 0), sample_band(prof, 3, 1), sample_gue(64, 4, 0)):
        lam = eigenvalues(s)
        assert np.all(np.diff(lam) >= 0)
        full = eigensolve(s).eigenvalues
        assert np.max(np.abs(lam - full)) <= 1e-12 * (1 + np.max(np.abs(full)))


def test_non_finite_spectrum_raises(medium_profile):
    mat = sample_band(medium_profile, 1, 0).matrix.copy()
    mat[3, 3] = np.nan
    bad = _sample_from_matrix(mat)
    # depending on the LAPACK driver, a NaN input fails to converge or
    # comes back as NaN eigenvalues; both must raise
    for solve in (eigenvalues, eigensolve):
        with pytest.raises(NumericError):
            solve(bad)


def _zscore(a, b):
    se = np.hypot(a.std(ddof=1) / np.sqrt(a.size), b.std(ddof=1) / np.sqrt(b.size))
    return abs(a.mean() - b.mean()) / se


def test_gue_eigenvalues_match_dense_gue():
    # same eigenvalue law as the dense GUE oracle: bulk gap ratio and the
    # 2nd/4th spectral moments (semicircle: 1 and 2) agree within |z| <= 4
    n, trials = 200, 120
    tri = [gue_eigenvalues(n, 21, t) for t in range(trials)]
    dense = [eigenvalues(sample_gue(n, 22, t)) for t in range(trials)]
    assert all(np.all(np.diff(w) >= 0) for w in tri)
    for stat in (
        lambda w: gap_ratio_mean(w, kappa=0.5),
        lambda w: np.mean(w**2),
        lambda w: np.mean(w**4),
    ):
        a = np.array([stat(w) for w in tri])
        b = np.array([stat(w) for w in dense])
        assert _zscore(a, b) <= 4.0


def test_gue_eigenvalues_reproducible():
    w = gue_eigenvalues(50, 3, 7)
    assert w.shape == (50,)
    assert np.array_equal(w, gue_eigenvalues(50, 3, 7))
    assert not np.array_equal(w, gue_eigenvalues(50, 3, 8))


class _NaNRng:
    def standard_normal(self, size):
        return np.full(size, np.nan)

    def chisquare(self, df):
        return np.ones(np.shape(df))


def test_gue_eigenvalues_non_finite_raises(monkeypatch):
    monkeypatch.setattr(spectral, "substream_rng", lambda seed, trial: _NaNRng())
    with pytest.raises(NumericError):
        gue_eigenvalues(20, 1, 0)


def test_eigensolve_invariants(medium_profile):
    s = sample_band(medium_profile, 2, 0)
    spec = eigensolve(s)
    n = s.lattice.N
    assert abs(spec.eigenvalues.sum() - np.trace(s.matrix).real) <= 1e-9 * n
    assert abs((spec.eigenvalues**2).sum() - np.linalg.norm(s.matrix, "fro") ** 2) <= 1e-8 * n
    U = spec.eigenvectors
    assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-10
    resid = np.max(
        np.linalg.norm(s.matrix @ U - U * spec.eigenvalues, axis=0)
    )
    assert resid <= 1e-8


def test_resolvent_from_spectrum_agreement():
    lat = TorusLattice(1, 64)
    prof = build_profile(get_shape("gaussian"), 4.0, lat)
    s = sample_band(prof, 14, 0)
    z = 0.3 + 0.1j
    spec = eigensolve(s)
    G_spec = resolvent_from_spectrum(spec, z)
    G_direct = resolvent(s, z).G
    assert np.max(np.abs(G_spec - G_direct)) <= 1e-8
    # Im G is positive semidefinite
    im_g = (G_spec - G_spec.conj().T) / 2j
    assert np.linalg.eigvalsh(im_g).min() >= -1e-10
    # N = 1 closed form
    one = resolvent_from_spectrum(eigensolve(_sample_from_matrix([[0.7]])), z)
    assert abs(one[0, 0] - 1 / (0.7 - z)) < 1e-14
