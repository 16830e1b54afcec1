import tracemalloc

import numpy as np
import pytest

from rbmlab.errors import (
    ContractError,
    ParameterError,
    WindowError,
)
from rbmlab.harness import StatReport
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape, mean_field_profile
from rbmlab.propagators import b_kernel
from rbmlab.sampler import HermitianSample, Provenance, sample_band, sample_gue
from rbmlab.spectral import eigensolve, resolvent
from rbmlab.stats import (
    TestDiagonal,
    box_indicator,
    deloc_supnorm,
    gap_ratio_mean,
    local_law_ratios,
    overlap_bound_check,
    que_bound_scale,
    que_trace,
    random_trace_zero,
    semicircle_cdf,
    semicircle_distance,
)
from rbmlab.tables import table_text, write_text


def _fixed(mat):
    n = mat.shape[0]
    return HermitianSample(TorusLattice(1, n), np.asarray(mat, dtype=complex), Provenance(0, 0, 0.0, "fixed"))


def test_semicircle_cdf_endpoints():
    assert semicircle_cdf(-2.0) == pytest.approx(0.0, abs=1e-15)
    assert semicircle_cdf(0.0) == pytest.approx(0.5)
    assert semicircle_cdf(2.0) == pytest.approx(1.0)


def test_semicircle_distance_examples():
    spec = eigensolve(_fixed(np.zeros((32, 32))))
    assert semicircle_distance(spec.eigenvalues) == pytest.approx(0.5)
    gue = eigensolve(sample_gue(400, 5, 0))
    d = semicircle_distance(gue.eigenvalues)
    assert 0.0 <= d <= 0.08
    with pytest.raises(ParameterError):
        semicircle_distance(np.zeros(8))


def test_gap_ratio_examples(rng):
    # degenerate equal spacing -> all ratios 1
    assert gap_ratio_mean(np.linspace(-1.4, 1.4, 200), kappa=0.5) == pytest.approx(1.0)
    # Poisson oracle: iid uniform spectrum, known mean 2 ln 2 - 1 = 0.3863
    vals = [
        gap_ratio_mean(np.sort(rng.uniform(-2, 2, 10_000)), kappa=0.5)
        for _ in range(5)
    ]
    assert abs(np.mean(vals) - (2 * np.log(2) - 1)) < 0.01
    # GUE mean sits well above Poisson
    gue = gap_ratio_mean(eigensolve(sample_gue(400, 6, 0)).eigenvalues, kappa=0.5)
    assert gue - np.mean(vals) > 0.15
    assert 0.0 <= gue <= 1.0
    with pytest.raises(WindowError):
        gap_ratio_mean(np.linspace(-1, 1, 30), kappa=0.5)


def test_deloc_supnorm_examples():
    def by_mask(spec, kappa):
        # the bulk columns picked one by one, the oracle of the slice
        bulk = np.abs(spec.eigenvalues) <= 2.0 - kappa
        return float(np.max(np.abs(spec.eigenvectors[:, bulk]) ** 2))

    spec_i = eigensolve(_fixed(np.eye(16)))
    assert deloc_supnorm(spec_i, kappa=0.5) == pytest.approx(1.0)
    assert deloc_supnorm(spec_i, kappa=0.5) == by_mask(spec_i, 0.5)
    with pytest.raises(WindowError):
        deloc_supnorm(spec_i, kappa=1.5)  # bulk window excludes lambda = 1
    gue = eigensolve(sample_gue(400, 7, 0))
    val = deloc_supnorm(gue, kappa=0.5)
    assert 1.0 / 400 <= val <= 25 * np.log(400) / 400
    for kappa in (0.5, 1.0, 1.9):
        assert deloc_supnorm(gue, kappa) == by_mask(gue, kappa)
    with pytest.raises(ParameterError):
        deloc_supnorm(gue, kappa=2.5)


def test_que_trace_identity(medium_profile, rng):
    z = 0.2 + 0.3j
    # each factorization takes its own draw of the same sample
    spec = eigensolve(sample_band(medium_profile, 31, 0))
    ctx = resolvent(sample_band(medium_profile, 31, 0), z, medium_profile)
    pi = random_trace_zero(medium_profile.lattice, rng)
    a = que_trace(ctx, pi)
    b = overlap_bound_check(spec, z, pi, l=z.imag)[3]  # the spectral double sum
    assert abs(a - b) <= 1e-8 * abs(a)
    assert que_trace(ctx, TestDiagonal(np.zeros(32))) == 0.0
    # all-ones diagonal: equals trace((Im G)^2)
    ones = TestDiagonal(np.ones(32))
    t_res = que_trace(ctx, ones)
    im_g = (ctx.G - ctx.G.conj().T) / 2j
    assert abs(t_res - np.sum(np.abs(im_g) ** 2)) <= 1e-8 * abs(t_res)
    with pytest.raises(ContractError):
        que_trace(ctx, TestDiagonal(np.zeros(8)))


def test_que_trace_reads_g_in_bounded_row_blocks():
    # Im G is formed one row block at a time, not as a whole N x N matrix
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(2, 32))
    z = 0.2 + 0.3j
    ctx = resolvent(sample_band(prof, 65, 0), z, prof, check=False)
    pi = box_indicator(prof.lattice, 16)
    n = ctx.N
    tracemalloc.start()
    try:
        que_trace(ctx, pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 16 * n * n, peak / (16 * n * n)


def test_trace_zero_invariant():
    with pytest.raises(ContractError):
        TestDiagonal(np.ones(8), trace_zero=True)
    td = TestDiagonal(np.array([1.0, -1.0]), trace_zero=True)
    assert td.values.sum() == 0.0


def test_box_indicator(small_profile):
    lat = small_profile.lattice
    pi = box_indicator(lat, 4)
    assert pi.trace_zero and abs(pi.values.sum()) < 1e-10
    assert set(np.round(pi.values, 12)) == {1.0, -1.0}
    with pytest.raises(ParameterError):
        box_indicator(lat, 0)


def test_overlap_bound_examples(medium_profile, rng):
    z = 0.2 + 0.3j
    pi = random_trace_zero(medium_profile.lattice, rng)
    for t in range(5):
        spec = eigensolve(sample_band(medium_profile, 41, t))
        lhs, rhs, holds, _ = overlap_bound_check(spec, z, pi, l=0.6)
        assert holds and lhs <= rhs * (1 + 1e-8)
    # Pi = 0 gives 0 <= 0
    spec = eigensolve(sample_band(medium_profile, 41, 0))
    lhs, rhs, holds, _ = overlap_bound_check(spec, z, TestDiagonal(np.zeros(32)), l=0.6)
    assert lhs == rhs == 0.0 and holds
    # l = eta specializes the constant to 4 eta^2 * trace
    lhs, rhs, _, tr = overlap_bound_check(spec, z, pi, l=z.imag)
    assert rhs == pytest.approx(4 * z.imag**2 * tr, rel=1e-10)
    with pytest.raises(ParameterError):
        overlap_bound_check(spec, z, pi, l=0.1 * z.imag)


def test_overlap_bound_check_returns_the_spectral_trace(medium_profile, rng):
    z = 0.2 + 0.3j
    spec = eigensolve(sample_band(medium_profile, 42, 0))
    ctx = resolvent(sample_band(medium_profile, 42, 0), z, medium_profile)
    pi = random_trace_zero(medium_profile.lattice, rng)
    U = spec.eigenvectors
    w = z.imag / (np.abs(spec.eigenvalues - z) ** 2)
    M = np.abs(U.conj().T @ (pi.values[:, None] * U)) ** 2
    tr = que_trace(ctx, pi)
    for l in (z.imag, 0.6):
        got = overlap_bound_check(spec, z, pi, l=l)[3]
        assert got == float(w @ M @ w)
        assert abs(got - tr) <= 1e-8 * abs(tr)


def test_local_law_ratios_mean_field():
    # empirical oracle: 20-trial median of max_x |G_xx - m| at N=400,
    # eta=0.1 comes out at ~0.39 (the per-entry rms is ~0.15; the max over
    # 400 sites runs ~2.5x higher); frozen with margin
    lat = TorusLattice(1, 400)
    prof = mean_field_profile(lat)
    z = 0.0 + 0.1j
    gaps = []
    for t in range(20):
        ctx = resolvent(sample_band(prof, 61, t), z, prof, check=False)
        gaps.append(local_law_ratios(ctx)[0])
    assert np.median(gaps) <= 0.45


def test_local_law_ratios_large_eta():
    # far from the spectrum the resolvent is nearly deterministic; the
    # empirical oracle at these parameters puts max_x |G_xx - m| near 0.15
    lat = TorusLattice(1, 256)
    prof = build_profile(get_shape("gaussian"), 4.0, lat)
    z = 0.2 + 2.0j
    worst = max(
        local_law_ratios(resolvent(sample_band(prof, 62, t), z, prof, check=False))[0]
        for t in range(3)
    )
    assert worst <= 0.2
    ctx = resolvent(sample_band(prof, 62, 0), z, prof, check=False)
    _, shell_max = local_law_ratios(ctx)
    assert np.isfinite(shell_max.max())
    assert shell_max.shape == (128,)  # distances 1..128
    with pytest.raises(ParameterError):
        bad = resolvent(sample_band(prof, 62, 0), 1.95 + 0.5j, prof, check=False)
        local_law_ratios(bad)


def _local_law_ratios_by_pair_index(ctx):
    """local_law_ratios as first written: every kernel entry looked up
    through the all-pairs displacement index."""
    lat, n = ctx.lattice, ctx.N
    bker = b_kernel(lat, ctx.profile.W).ravel()
    dist = lat.distance_fft.ravel()
    idx = np.arange(n)
    flat = lat.diff_flat(idx[:, None], idx[None, :])
    ratio = np.abs(ctx.G) ** 2 / (bker[flat] + 1.0 / (n * ctx.eta))
    dmat = dist[flat]
    shells = [[s, float(ratio[dmat == s].max())] for s in range(1, int(dist.max()) + 1)]
    return {
        "max_diag_gap": float(np.max(np.abs(np.diagonal(ctx.G) - ctx.m))),
        "max_offdiag_ratio": float(ratio[dmat > 0].max()),
    }, shells


@pytest.mark.parametrize(
    "d,L,W",
    [
        (1, 101, 4.0),  # odd L
        (2, 8, 2.0),
        (3, 7, 2.0),
        (1, 2053, 4.0),  # 2^16 // N = 31 rows a block: 67 blocks, the last partial
    ],
)
def test_local_law_ratios_match_pair_index_formulation(d, L, W):
    lat = TorusLattice(d, L)
    prof = build_profile(get_shape("gaussian"), W, lat)
    z = 0.2 + 0.3j
    ctx = resolvent(sample_band(prof, 63, 0), z, prof, check=False)
    diag_gap, shell_max = local_law_ratios(ctx)
    metrics, shells = _local_law_ratios_by_pair_index(ctx)
    assert {"max_diag_gap": diag_gap, "max_offdiag_ratio": shell_max.max()} == metrics
    assert [[s, v] for s, v in enumerate(shell_max, start=1)] == shells


def test_local_law_ratios_scans_g_in_bounded_row_blocks():
    # the distance gather and the |G|^2 temporaries of one row block, not of
    # all of G: a sixteenth of an N x N complex buffer at N = 1024
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(2, 32))
    z = 0.2 + 0.3j
    ctx = resolvent(sample_band(prof, 64, 0), z, prof, check=False)
    n = ctx.N
    tracemalloc.start()
    try:
        local_law_ratios(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 16 * n * n, peak / (16 * n * n)


def _bound_scale_by_displacement_field(prof, pi):
    # |Pi| scattered into FFT layout as a displacement field, convolved with
    # the B kernel by three explicit FFTs
    lat = prof.lattice
    pi_abs = np.abs(pi.values)
    pi_fft = np.zeros((lat.L,) * lat.d)
    origin = np.ravel_multi_index((lat.shift,) * lat.d, (lat.L,) * lat.d)  # the site at coordinate 0
    pi_fft.ravel()[lat.diff_flat(np.arange(lat.N), origin)] = pi_abs
    conv = np.fft.ifftn(np.fft.fftn(b_kernel(lat, prof.W)) * np.fft.fftn(pi_fft)).real
    return float(pi_abs.sum() * conv.max())


def _que_traces(prof, pi, seed=3, z=0.2 + 0.5j):
    return [
        que_trace(resolvent(sample_band(prof, seed, t), z, prof), pi)
        for t in range(20)
    ]


def test_que_bound_ratio(small_profile):
    # the mean |trace| over draws against que_bound_scale, as rbm que reports it
    pi = box_indicator(small_profile.lattice, 4)
    ratio = np.mean(np.abs(_que_traces(small_profile, pi))) / que_bound_scale(small_profile, pi)
    assert np.isfinite(ratio) and not ratio > 100.0  # not flagged
    # homogeneity: Pi -> 2 Pi leaves the ratio invariant
    pi2 = TestDiagonal(2 * pi.values, trace_zero=True)
    ratio2 = np.mean(np.abs(_que_traces(small_profile, pi2))) / que_bound_scale(small_profile, pi2)
    assert ratio2 == pytest.approx(ratio, rel=1e-12)
    with pytest.raises(ContractError):
        que_bound_scale(small_profile, TestDiagonal(np.zeros(8), trace_zero=True))
    # the bound scale equals the displacement-field formula in d = 1 and d = 2
    prof_2d = build_profile(get_shape("gaussian"), 2.0, TorusLattice(2, 6))
    for prof, side in ((small_profile, 3), (prof_2d, 2)):
        pi = box_indicator(prof.lattice, side)
        assert que_bound_scale(prof, pi) == pytest.approx(_bound_scale_by_displacement_field(prof, pi), rel=1e-12)


def test_stat_report_serialization(tmp_path):
    rep = StatReport("demo", params={"L": 8})
    rep.add("alpha", 1.5, "first metric", n=10, stderr=0.1)
    rep.add("beta", -2.0, "second metric")
    txt = rep.to_json()
    assert '"alpha"' in txt and '"definition"' in txt
    path = tmp_path / "m.csv"
    write_text(path, rep.csv_text())
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "metric,value,stderr,n,definition"
    assert len(lines) == 3
    assert rep["alpha"] == 1.5
    # numpy scalars are written by value, like Python numbers
    text = table_text(["k", "v"], [[1, np.float64(0.1)], [np.int64(2), 1 / 3]])
    assert text == "k,v\n1,0.1\n2,0.3333333333333333\n"
    rep = StatReport("demo")
    rep.add("gamma", 2.0, "a, b", stderr=np.float64(0.25))
    assert rep.csv_text() == "metric,value,stderr,n,definition\ngamma,2.0,0.25,1,a; b\n"
