import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from rbmlab.errors import (
    ContractError,
    HalfPlaneError,
    NumericError,
    ParameterError,
    ValidationError,
)
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape, mean_field_profile
from rbmlab.sampler import HermitianSample, Provenance, ou_evolve, sample_band, sample_gue
from rbmlab import harness, spectral
from rbmlab.harness import ExperimentConfig, run
from rbmlab.spectral import (
    ResolventContext,
    eigensolve,
    eigenvalues,
    gue_eigenvalues,
    resolvent,
    second_order_terms,
    semicircle_m,
    t_three,
    ward_residual,
    zero_mode_split,
)
from rbmlab.propagators import PropagatorSet, theta_circ
from rbmlab.stats import gap_ratio_mean


def _sample_from_matrix(mat):
    mat = np.asarray(mat, dtype=complex)
    return HermitianSample(TorusLattice(1, mat.shape[0]), mat, Provenance(0, 0, 0.0, "fixed"))


def _mean_field_resolvent(s, z):
    # G does not depend on the profile, and the mean-field one fits any
    # lattice: fixed matrices and GUE draws have no profile of their own
    return resolvent(s, z, mean_field_profile(s.lattice))


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
    ctx = _mean_field_resolvent(_sample_from_matrix([[0.7]]), z)
    assert abs(ctx.G[0, 0] - 1.0 / (0.7 - z)) < 1e-14
    ctx0 = _mean_field_resolvent(_sample_from_matrix(np.zeros((4, 4))), z)
    assert np.max(np.abs(ctx0.G + np.eye(4) / z)) < 1e-14


def test_resolvent_context_stores_four_fields_and_derives_m_and_lattice(medium_profile):
    ctx = resolvent(sample_band(medium_profile, 17, 0), 0.3 + 0.1j, medium_profile)
    names = [f.name for f in dataclasses.fields(ResolventContext)]
    assert names == ["z", "G", "provenance", "profile"]
    assert ctx.m == semicircle_m(ctx.z)
    assert ctx.lattice is medium_profile.lattice
    assert ctx.N == 32


def test_resolvent_rejects_a_profile_on_another_lattice():
    # the context's lattice is the profile's, so a profile for another
    # lattice would size every kernel lookup against the wrong N
    prof64 = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 64))
    prof32 = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 32))
    s = sample_band(prof64, 20, 0)
    with pytest.raises(ParameterError, match="lattice"):
        resolvent(s, 0.3 + 0.1j, prof32)
    with pytest.raises(ParameterError, match="lattice"):
        resolvent(s, 0.3 + 0.1j, build_profile(get_shape("gaussian"), 4.0, TorusLattice(2, 8)))
    assert resolvent(s, 0.3 + 0.1j, prof64).lattice == s.lattice


def test_resolvent_residual(medium_profile):
    h = sample_band(medium_profile, 17, 0).matrix
    ctx = resolvent(sample_band(medium_profile, 17, 0), 0.3 + 0.1j, medium_profile)
    n = ctx.N
    resid = np.max(np.abs((h - ctx.z * np.eye(n)) @ ctx.G - np.eye(n)))
    assert resid <= 1e-10 * (1 + np.max(np.abs(ctx.G)))


def test_resolvent_matches_inverse_of_shifted_matrix(medium_profile):
    cases = [(sample_band(medium_profile, 5, 0), 0.3 + 0.1j),
             (sample_band(medium_profile, 5, 1), -1.2 + 0.05j),
             (sample_gue(32, 6, 0), -0.4 + 1.0j)]
    for s, z in cases:
        n = s.lattice.N
        want = np.linalg.inv(s.matrix - z * np.eye(n))
        assert np.array_equal(_mean_field_resolvent(s, z).G, want)


@pytest.mark.parametrize("d,L", [(1, 129), (1, 300), (2, 16), (2, 23), (0, 333)])
def test_block_resolvent_matches_lapack_above_cutoff(d, L):
    # d = 0 stands for a GUE draw of size L; odd and even splits both occur
    if d:
        prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(d, L))
        draw = lambda: sample_band(prof, 11, 0)  # noqa: E731
    else:
        draw = lambda: sample_gue(L, 12, 0)  # noqa: E731
    h = draw().matrix
    n = h.shape[0]
    assert n > spectral._BLOCK_MIN
    for E in (0.3, -1.9, 2.6):
        for eta in (1e-3, 0.1, 1.0):
            z = complex(E, eta)
            a = h - z * np.eye(n)
            G = _mean_field_resolvent(draw(), z).G  # check=True: the residual bound holds
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
    want = np.linalg.inv(stack)  # before _block_inv overwrites the stack
    G = spectral._block_inv(stack)
    assert G.shape == stack.shape
    assert np.shares_memory(G, stack)
    assert np.max(np.abs(G - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


@pytest.mark.parametrize("L", [129, 300])  # odd and even top-level split
@pytest.mark.parametrize("check", [False, True])
def test_resolvent_takes_the_sample(L, check):
    # _block_inv writes G over the sample's own buffer, with or without the
    # residual check (which works on a private copy of H)
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, L))
    s = sample_band(prof, 15, 0)
    h = s.matrix
    G = resolvent(s, 0.3 + 0.1j, prof, check=check).G
    assert G is h
    for use in (lambda: s.matrix, lambda: resolvent(s, 0.3 + 0.1j, prof, check=check)):
        with pytest.raises(ContractError, match=f"trial={s.provenance.trial}"):
            use()


_TAKERS = {
    "resolvent": lambda s, prof: resolvent(s, 0.3 + 0.1j, prof, check=False),
    "resolvent-checked": lambda s, prof: resolvent(s, 0.3 + 0.1j, prof, check=True),
    "eigenvalues": lambda s, prof: eigenvalues(s),
    "eigensolve": lambda s, prof: eigensolve(s),
    "ou_evolve": lambda s, prof: ou_evolve(s, 0.5, 3, s.provenance.trial),
}


@pytest.mark.parametrize("name", sorted(_TAKERS))
def test_each_dense_step_takes_the_sample_once(name, medium_profile):
    s = sample_band(medium_profile, 24, 5)
    _TAKERS[name](s, medium_profile)
    for use in (lambda: s.matrix, s.take, *[lambda f=f: f(s, medium_profile) for f in _TAKERS.values()]):
        with pytest.raises(ContractError, match="seed=24, trial=5"):
            use()


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resolvent_peak_memory_is_one_and_an_eighth_inverses():
    # G is written over the sample's buffer, so beside it resolvent
    # allocates only _block_inv's one workspace of about N^2 / 8 entries;
    # check adds its copy of H, so with the sample 1.14 N^2 and 2.14 N^2
    # complex entries at N = 1024.  The residual check reads (H - z) G in
    # row blocks and adds no N x N array
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(2, 32))
    n = prof.lattice.N
    for check, bound in ((False, 0.2), (True, 1.25)):
        s = sample_band(prof, 16, 0)
        peak = _traced_peak(lambda: resolvent(s, 0.3 + 0.1j, prof, check=check))
        assert peak <= bound * 16 * n * n, (check, peak / (16 * n * n))


def test_ward_residual_reads_g_in_bounded_row_blocks():
    # rows of G^* G, G and G^* one block at a time: no N x N temporary
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(2, 32))
    ctx = resolvent(sample_band(prof, 17, 0), 0.3 + 0.1j, prof, check=False)
    n = ctx.N
    peak = _traced_peak(lambda: ward_residual(ctx))
    assert peak <= 0.5 * 16 * n * n, peak / (16 * n * n)


def test_resolvent_context_lets_the_sample_go():
    # the context keeps G, the profile and the provenance; the sample's one
    # buffer became G, and the sample holds no matrix
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 200))
    s = sample_band(prof, 19, 0)
    matrix = weakref.ref(s.matrix)
    ctx = resolvent(s, 0.3 + 0.1j, prof)
    assert (ctx.lattice, ctx.provenance) == (s.lattice, s.provenance)
    with pytest.raises(ContractError):
        s.matrix
    assert matrix() is ctx.G
    del ctx
    assert matrix() is None


def test_residual_check_rejects_a_wrong_entry_in_any_row_block():
    # N = 600 splits into row blocks of 109 rows, the last of 55
    s = sample_gue(600, 18, 0)
    z = 0.3 + 0.1j
    G = np.linalg.inv(s.matrix - z * np.eye(600))
    spectral._check_residual(s.matrix, z, G)
    for row in (0, 108, 109, 599):
        # a wrong entry of H in one row puts the whole residual in that row
        bad = s.matrix.copy()
        bad[row, 7] += 1e-6
        with pytest.raises(NumericError, match="resolvent residual"):
            spectral._check_residual(bad, z, G)


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
            ResolventContext(ctx.z, bad, ctx.provenance, prof).ward_dev


def test_resolvent_never_returns_a_g_that_fails_the_ward_sentinel(monkeypatch):
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 200))
    clean_inv = spectral._block_inv
    monkeypatch.setattr(spectral, "_block_inv", lambda a: clean_inv(a) * (1.0 + 1e-4))
    with pytest.raises(NumericError, match="Ward sentinel"):
        resolvent(sample_band(prof, 14, 0), 0.3 + 0.01j, prof, check=False)


def test_ward_identity_1x1_and_diagonal_case(medium_profile):
    z = 0.3 + 0.1j
    ctx1 = _mean_field_resolvent(_sample_from_matrix([[0.4]]), z)
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
    zero_ctx = ResolventContext(z, -np.eye(8, dtype=complex) / z, ctx.provenance, small_profile)
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


def test_second_order_terms_match_the_dense_variance_matrix(medium_profile):
    # the FFT convolutions with the kernel against the sums over dense S
    z = 0.2 + 0.5j
    ctx = resolvent(sample_band(medium_profile, 23, 0), z, medium_profile)
    props = PropagatorSet.build(medium_profile, z)
    S = medium_profile.dense_matrix()
    G, m = ctx.G, ctx.m
    gd = np.diagonal(G)
    for a, b1, b2 in [(0, 1, 3), (0, 0, 0), (5, 9, 9), (31, 30, 2)]:
        theta_row = props.theta_circ_at(a, np.arange(32))
        pair = G[:, b1] * G[:, b2].conj()
        T = abs(m) ** 2 * (S[a] @ pair)
        A = m * (S @ (gd - m)) * pair + m * (gd.conj() - np.conj(m)) * (S @ pair)
        corr = A @ theta_row
        got_t, _, _, got_corr = second_order_terms(ctx, theta_row, a, b1, b2)
        assert abs(got_t - T) <= 1e-14 * abs(T)
        assert abs(got_corr - corr) <= 1e-13 * (1 + abs(corr))


# the second-order residual's Monte Carlo mean, through rbm texp2: harness
# draws and inverts each chunk of trials as one stack and reads every site
# triple from it

def _texp2(trials, seed, workers=1, **fields):
    # at the small profile (gaussian, W = 2 on d = 1, L = 8) and z = 0.2 + 0.5i, unless fields say otherwise
    cfg = ExperimentConfig("texp2", d=1, L=8, W=2.0, E=0.2, eta=(0.5,), trials=trials, seed=seed, **fields)
    return run(cfg, workers=workers).report


def test_second_order_residual_smoke_and_validation():
    rep = _texp2(100, seed=5)
    mean_re = rep.metrics["mean_re_sites_0_1_3"]
    assert np.isfinite(mean_re.value) and np.isfinite(mean_re.stderr)
    assert mean_re.n == 100
    with pytest.raises(ValidationError, match="trials=99"):
        _texp2(99, seed=5)


def test_second_order_residual_mean_field():
    rep = _texp2(4000, seed=6, psi="mean-field")
    assert rep["z_re_sites_0_1_3"] <= 5 and rep["z_im_sites_0_1_3"] <= 5


_TRIPLES = [(0, 1, 3), (0, 0, 0), (2, 5, 5)]  # a = 0 twice; texp2's triples at N = 8


def test_second_order_residual_matches_per_trial_oracle(small_profile):
    z, trials, seed = 0.2 + 0.5j, 300, 21
    rep = _texp2(trials, seed)
    resid = np.empty((len(_TRIPLES), trials), dtype=complex)
    props = PropagatorSet.build(small_profile, z)
    for t in range(trials):
        ctx = resolvent(sample_band(small_profile, seed, t), z, small_profile, check=False)
        for i, (a, b1, b2) in enumerate(_TRIPLES):
            theta_row = props.theta_circ_at(a, np.arange(8))
            T, lead, zm, corr = second_order_terms(ctx, theta_row, a, b1, b2)
            resid[i, t] = T - lead - zm - corr
    keys = [f"sites_{a}_{b1}_{b2}" for a, b1, b2 in _TRIPLES]
    assert sorted(k for k in rep.metrics if k.startswith("mean_re_")) == sorted(f"mean_re_{k}" for k in keys)
    for key, r in zip(keys, resid):
        re, im = rep.metrics[f"mean_re_{key}"], rep.metrics[f"mean_im_{key}"]
        assert re.n == im.n == trials
        assert abs(complex(re.value, im.value) - r.mean()) <= 1e-12 * abs(r.mean())
        assert re.stderr == pytest.approx(np.sqrt(r.real.var() / trials), rel=1e-12)
        assert im.stderr == pytest.approx(np.sqrt(r.imag.var() / trials), rel=1e-12)


def test_second_order_residual_same_for_any_worker_count():
    one = _texp2(300, seed=4, workers=1)
    two = _texp2(300, seed=4, workers=2)
    assert one.to_json() == two.to_json()


def test_second_order_residual_draws_and_inverts_each_trial_once(monkeypatch):
    draws, inverted = [], []
    sample = harness.sample_band_batch
    invert = harness.resolvent_stack

    def counting_sample(prof, seed, t0, t1):
        draws.extend(range(t0, t1))
        return sample(prof, seed, t0, t1)

    def counting_inv(a, z, what):
        inverted.append(a.shape[0])
        return invert(a, z, what)

    monkeypatch.setattr(harness, "sample_band_batch", counting_sample)
    monkeypatch.setattr(harness, "resolvent_stack", counting_inv)
    _texp2(200, seed=8)
    assert sorted(draws) == list(range(200))
    assert sum(inverted) == 200


def test_texp2_chunk_peak_memory_is_one_stack_and_blocks():
    # a 64-trial chunk at N = 128 is inverted by LAPACK alone, in sub-stacks
    # of about 2^16 entries, so beside the chunk's stack of draws (which
    # becomes the stack of resolvents) only block-sized temporaries are live
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 128))
    config = ExperimentConfig("texp2", d=1, L=128, W=4.0, E=0.2, eta=(0.5,), seed=5)
    theta_rows = prof.lattice.kernel_matrix(theta_circ(prof, config.z()), [a for a, _, _ in _TRIPLES])
    args = (config, prof, _TRIPLES, theta_rows, 0, 64)
    peak = _traced_peak(lambda: harness._texp2_chunk(args))
    assert peak <= 1.3 * 64 * 16 * 128**2, peak / (64 * 16 * 128**2)


def test_eigensolve_examples():
    spec = eigensolve(_sample_from_matrix(np.diag([1.0, 2.0, 3.0])))
    assert np.allclose(spec.eigenvalues, [1, 2, 3])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(3))


def test_eigenvalues_match_eigensolve():
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 64))
    draws = (lambda: sample_band(prof, 3, 0), lambda: sample_band(prof, 3, 1), lambda: sample_gue(64, 4, 0))
    for draw in draws:
        lam = eigenvalues(draw())
        assert np.all(np.diff(lam) >= 0)
        full = eigensolve(draw()).eigenvalues
        assert np.max(np.abs(lam - full)) <= 1e-12 * (1 + np.max(np.abs(full)))


def test_non_finite_spectrum_raises(medium_profile):
    mat = sample_band(medium_profile, 1, 0).matrix
    mat[3, 3] = np.nan
    # depending on the LAPACK driver, a NaN input fails to converge or
    # comes back as NaN eigenvalues; both must raise
    for solve in (eigenvalues, eigensolve):
        with pytest.raises(NumericError):
            solve(_sample_from_matrix(mat.copy()))


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


def test_gue_eigenvalues_peak_memory_is_linear():
    # dsterf on the two vectors: no n x n tridiagonal matrix, no copy of it
    n = 1024
    gue_eigenvalues(8, 1, 0)  # the LAPACK symbols are looked up once
    tracemalloc.start()
    try:
        gue_eigenvalues(n, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n, peak / n


def test_gue_eigenvalues_non_finite_raises(monkeypatch):
    monkeypatch.setattr(spectral, "substream_rng", lambda seed, trial: _NaNRng())
    with pytest.raises(NumericError):
        gue_eigenvalues(20, 1, 0)


def test_eigensolve_invariants(medium_profile):
    h = sample_band(medium_profile, 2, 0).matrix
    spec = eigensolve(sample_band(medium_profile, 2, 0))
    n = h.shape[0]
    assert abs(spec.eigenvalues.sum() - np.trace(h).real) <= 1e-9 * n
    assert abs((spec.eigenvalues**2).sum() - np.linalg.norm(h, "fro") ** 2) <= 1e-8 * n
    U = spec.eigenvectors
    assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-10
    resid = np.max(
        np.linalg.norm(h @ U - U * spec.eigenvalues, axis=0)
    )
    assert resid <= 1e-8


def test_resolvent_from_spectrum_agreement():
    # G = sum_a u_a u_a^* / (lambda_a - z), built from the eigendecomposition
    lat = TorusLattice(1, 64)
    prof = build_profile(get_shape("gaussian"), 4.0, lat)
    z = 0.3 + 0.1j
    spec = eigensolve(sample_band(prof, 14, 0))
    U = spec.eigenvectors
    G_spec = (U / (spec.eigenvalues - z)) @ U.conj().T
    G_direct = resolvent(sample_band(prof, 14, 0), z, prof).G
    assert np.max(np.abs(G_spec - G_direct)) <= 1e-8
    # Im G is positive semidefinite
    im_g = (G_spec - G_spec.conj().T) / 2j
    assert np.linalg.eigvalsh(im_g).min() >= -1e-10
    # N = 1 closed form
    one = eigensolve(_sample_from_matrix([[0.7]]))
    g_one = (one.eigenvectors / (one.eigenvalues - z)) @ one.eigenvectors.conj().T
    assert abs(g_one[0, 0] - 1 / (0.7 - z)) < 1e-14
