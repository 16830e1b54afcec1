import numpy as np
import pytest

from rbmlab.errors import (
    CapacityError,
    ContractError,
    InsufficientSamplesError,
    ParameterError,
    WindowError,
)
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape, mean_field_profile
from rbmlab.propagators import PropagatorSet, b_kernel
from rbmlab.sampler import HermitianSample, Provenance, sample_band, sample_gue
from rbmlab.spectral import eigensolve, resolvent, semicircle_m
from rbmlab.stats import (
    StatReport,
    TestDiagonal,
    box_indicator,
    deloc_supnorm,
    diagnostic_norms,
    g_comparison,
    gap_ratio_mean,
    local_law_ratios,
    overlap_bound_check,
    pgon_average,
    que_bound_ratio,
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
    assert semicircle_distance(spec) == pytest.approx(0.5)
    gue = eigensolve(sample_gue(400, 5, 0))
    d = semicircle_distance(gue)
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
    gue = gap_ratio_mean(eigensolve(sample_gue(400, 6, 0)), kappa=0.5)
    assert gue - np.mean(vals) > 0.15
    assert 0.0 <= gue <= 1.0
    with pytest.raises(WindowError):
        gap_ratio_mean(np.linspace(-1, 1, 30), kappa=0.5)


def test_deloc_supnorm_examples():
    spec_i = eigensolve(_fixed(np.eye(16)))
    assert deloc_supnorm(spec_i, kappa=0.5) == pytest.approx(1.0)
    with pytest.raises(WindowError):
        deloc_supnorm(spec_i, kappa=1.5)  # bulk window excludes lambda = 1
    gue = eigensolve(sample_gue(400, 7, 0))
    val = deloc_supnorm(gue, kappa=0.5)
    assert 1.0 / 400 <= val <= 25 * np.log(400) / 400
    with pytest.raises(ParameterError):
        deloc_supnorm(gue, kappa=2.5)


def test_que_trace_identity(medium_profile, rng):
    z = 0.2 + 0.3j
    sample = sample_band(medium_profile, 31, 0)
    spec = eigensolve(sample)
    ctx = resolvent(sample, z, medium_profile)
    pi = random_trace_zero(medium_profile.lattice, rng)
    a = que_trace(ctx, pi, "resolvent")
    b = que_trace(ctx, pi, "spectral", spec=spec)
    assert abs(a - b) <= 1e-8 * abs(a)
    assert que_trace(ctx, TestDiagonal(np.zeros(32)), "resolvent") == 0.0
    # all-ones diagonal: equals trace((Im G)^2) both ways
    ones = TestDiagonal(np.ones(32))
    t_res = que_trace(ctx, ones, "resolvent")
    im_g = (ctx.G - ctx.G.conj().T) / 2j
    assert abs(t_res - np.sum(np.abs(im_g) ** 2)) <= 1e-8 * abs(t_res)
    with pytest.raises(ContractError):
        que_trace(ctx, TestDiagonal(np.zeros(8)), "resolvent")
    with pytest.raises(ParameterError):
        que_trace(ctx, ones, "bogus")


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
    ctx = resolvent(sample_band(medium_profile, 41, 0), z, medium_profile)
    lhs, rhs, _, _ = overlap_bound_check(spec, z, pi, l=z.imag)
    tr = que_trace(ctx, pi, "spectral", spec=spec)
    assert rhs == pytest.approx(4 * z.imag**2 * tr, rel=1e-10)
    with pytest.raises(ParameterError):
        overlap_bound_check(spec, z, pi, l=0.1 * z.imag)


def test_overlap_bound_check_returns_the_spectral_trace(medium_profile, rng):
    z = 0.2 + 0.3j
    sample = sample_band(medium_profile, 42, 0)
    spec = eigensolve(sample)
    ctx = resolvent(sample, z, medium_profile)
    pi = random_trace_zero(medium_profile.lattice, rng)
    for l in (z.imag, 0.6):
        assert overlap_bound_check(spec, z, pi, l=l)[3] == que_trace(ctx, pi, "spectral", spec=spec)


def test_pgon_average(medium_profile):
    z = 0.2 + 0.3j
    ctx = resolvent(sample_band(medium_profile, 51, 0), z, medium_profile)
    n = ctx.N
    value, scale = pgon_average(ctx, np.arange(n), 2, "+-")
    # Ward identity: equals (N eta)^-1 N^-1 sum_y Im G_yy
    ward = np.sum(np.diagonal(ctx.G).imag) / (n**2 * z.imag)
    assert abs(value - ward) <= 1e-9
    assert scale > 0
    # brute-force double loop on a small subset
    lat16 = TorusLattice(1, 16)
    prof16 = build_profile(get_shape("gaussian"), 2.0, lat16)
    ctx16 = resolvent(sample_band(prof16, 52, 0), z, prof16)
    sites = np.arange(16)
    value16, _ = pgon_average(ctx16, sites, 2, "+-")
    G = ctx16.G
    brute = sum(
        G[x, y] * np.conj(G[x, y]) for x in range(16) for y in range(16)
    ) / 16.0**2
    assert abs(value16 - brute) < 1e-12
    # 3-gon against a hand loop
    sub = np.array([0, 3, 7, 11])
    v3, _ = pgon_average(ctx16, sub, 3, "++-")
    acc = 0.0
    for x1 in sub:
        for x2 in sub:
            for x3 in sub:
                acc += G[x1, x2] * G[x2, x3] * np.conj(G[x1, x3])
    assert abs(v3 - acc / len(sub) ** 3) < 1e-12
    with pytest.raises(ParameterError):
        pgon_average(ctx16, [0], 2, "+-")
    with pytest.raises(ContractError):
        pgon_average(ctx16, sites, 3, "+-")
    with pytest.raises(CapacityError):
        pgon_average(ctx16, np.arange(16), 8, "+-+-+-+-")


def test_g_comparison_hand_value():
    lat = TorusLattice(1, 64)
    K, W = 4.0, 4.0
    eta = (W / 64) ** 2
    inv_neta = 1.0 / (64 * eta)
    first = 1 / (W**2 * K ** (-1)) + inv_neta + K**-0.5 * np.sqrt(inv_neta * 64**2 / W**2)
    second = 1 / (W**4 * K ** (-3)) + inv_neta * 64**2 / W**2
    assert g_comparison(K, W, eta, lat) == pytest.approx(np.sqrt(first * second))


def test_local_law_ratios_mean_field():
    # empirical oracle: 20-trial median of max_x |G_xx - m| at N=400,
    # eta=0.1 comes out at ~0.39 (the per-entry rms is ~0.15; the max over
    # 400 sites runs ~2.5x higher); frozen with margin
    lat = TorusLattice(1, 400)
    prof = mean_field_profile(lat)
    z = 0.0 + 0.1j
    props = PropagatorSet.build(prof, z)
    gaps = []
    for t in range(20):
        ctx = resolvent(sample_band(prof, 61, t), z, prof, check=False)
        gaps.append(local_law_ratios(ctx, props)["max_diag_gap"])
    assert np.median(gaps) <= 0.45


def test_local_law_ratios_large_eta():
    # far from the spectrum the resolvent is nearly deterministic; the
    # empirical oracle at these parameters puts max_x |G_xx - m| near 0.15
    lat = TorusLattice(1, 256)
    prof = build_profile(get_shape("gaussian"), 4.0, lat)
    z = 0.2 + 2.0j
    props = PropagatorSet.build(prof, z)
    worst = max(
        local_law_ratios(
            resolvent(sample_band(prof, 62, t), z, prof, check=False), props
        )["max_diag_gap"]
        for t in range(3)
    )
    assert worst <= 0.2
    ctx = resolvent(sample_band(prof, 62, 0), z, prof, check=False)
    rep = local_law_ratios(ctx, props)
    assert np.isfinite(rep["max_offdiag_ratio"])
    header, rows = rep.tables["ratio_shells"]
    assert header == ["distance", "max_ratio"] and len(rows) == 128
    with pytest.raises(ParameterError):
        bad = resolvent(sample_band(prof, 62, 0), 1.95 + 0.5j, prof, check=False)
        local_law_ratios(bad, PropagatorSet.build(prof, 1.95 + 0.5j))


def _local_law_ratios_by_pair_index(ctx, props):
    """local_law_ratios as first written: every kernel entry looked up
    through the all-pairs displacement index."""
    lat, n = ctx.lattice, ctx.N
    bker = b_kernel(lat, props.profile.W).ravel()
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
        (1, 2053, 4.0),  # N > 2048: the row-block loop runs twice
    ],
)
def test_local_law_ratios_match_pair_index_formulation(d, L, W):
    lat = TorusLattice(d, L)
    prof = build_profile(get_shape("gaussian"), W, lat)
    z = 0.2 + 0.3j
    props = PropagatorSet.build(prof, z)
    ctx = resolvent(sample_band(prof, 63, 0), z, prof, check=False)
    rep = local_law_ratios(ctx, props)
    metrics, shells = _local_law_ratios_by_pair_index(ctx, props)
    assert {k: m.value for k, m in rep.metrics.items()} == metrics
    assert rep.tables == {"ratio_shells": (["distance", "max_ratio"], shells)}


def _bound_scale_by_displacement_field(prof, pi):
    # |Pi| scattered into FFT layout as a displacement field, convolved with
    # the B kernel by three explicit FFTs
    lat = prof.lattice
    pi_abs = np.abs(pi.values)
    pi_fft = np.zeros((lat.L,) * lat.d)
    pi_fft.ravel()[lat.diff_flat(np.arange(lat.N), lat.index_of([0] * lat.d))] = pi_abs
    conv = np.fft.ifftn(np.fft.fftn(b_kernel(lat, prof.W)) * np.fft.fftn(pi_fft)).real
    return float(pi_abs.sum() * conv.max())


def _que_traces(prof, pi, draws=20, seed=3, z=0.2 + 0.5j):
    return [
        que_trace(resolvent(sample_band(prof, seed, t), z, prof), pi, "resolvent")
        for t in range(draws)
    ]


def test_que_bound_ratio(small_profile):
    pi = box_indicator(small_profile.lattice, 4)
    rep = que_bound_ratio(_que_traces(small_profile, pi), small_profile, pi)
    assert np.isfinite(rep["ratio"]) and rep["ratio_flagged"] == 0.0
    # homogeneity: Pi -> 2 Pi leaves the ratio invariant
    pi2 = TestDiagonal(2 * pi.values, trace_zero=True)
    rep2 = que_bound_ratio(_que_traces(small_profile, pi2), small_profile, pi2)
    assert rep2["ratio"] == pytest.approx(rep["ratio"], rel=1e-12)
    with pytest.raises(ContractError):
        que_bound_ratio([1.0] * 20, small_profile, TestDiagonal(np.zeros(8), trace_zero=True))
    with pytest.raises(InsufficientSamplesError):
        que_bound_ratio(_que_traces(small_profile, pi, draws=19), small_profile, pi)
    # the bound scale equals the displacement-field formula in d = 1 and d = 2
    prof_2d = build_profile(get_shape("gaussian"), 2.0, TorusLattice(2, 6))
    for prof, side in ((small_profile, 3), (prof_2d, 2)):
        pi = box_indicator(prof.lattice, side)
        rep = que_bound_ratio(_que_traces(prof, pi), prof, pi)
        assert rep["bound_scale"] == pytest.approx(_bound_scale_by_displacement_field(prof, pi), rel=1e-12)


def test_diagnostic_norms(small_profile):
    z = 0.2 + 0.3j
    props = PropagatorSet.build(small_profile, z)
    # H = 0: G - mI diagonal, both norms finite
    zero = HermitianSample(small_profile.lattice, np.zeros((8, 8), dtype=complex), Provenance(0, 0, 0.0, "zero"))
    ctx0 = resolvent(zero, z, small_profile)
    rep0 = diagnostic_norms(ctx0, props, Phi=0.1)
    assert np.isfinite(rep0["weak_norm"]) and np.isfinite(rep0["strong_norm"])
    expected_entry = abs(-1 / z - semicircle_m(z))
    assert rep0["strong_norm"] >= expected_entry / (1 / 2.0 * (0 + 2.0) ** 0.5 + 0.1) * 0.1
    # homogeneity degree 1 in the matrix argument (scale H's resolvent gap)
    lat64 = TorusLattice(1, 64)
    prof64 = build_profile(get_shape("gaussian"), 4.0, lat64)
    ctx = resolvent(sample_band(prof64, 71, 0), z, prof64, check=False)
    props64 = PropagatorSet.build(prof64, z)
    rep = diagnostic_norms(ctx, props64, Phi=0.1)
    assert rep["weak_norm"] > 0 and rep["strong_norm"] > 0
    assert np.isfinite(rep["flow_observable_1"]) and np.isfinite(rep["flow_observable_2"])
    with pytest.raises(ParameterError):
        diagnostic_norms(ctx, props64, Phi=0.0)


def test_norms_homogeneous_degree_one(rng):
    from rbmlab.stats import strong_norm, weak_norm

    lat = TorusLattice(1, 16)
    A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    for scale in (3.0, 0.25):
        assert weak_norm(scale * A, lat, 2.0, 0.3, 0.1) == pytest.approx(
            scale * weak_norm(A, lat, 2.0, 0.3, 0.1), rel=1e-12
        )
        assert strong_norm(scale * A, lat, 2.0, 0.1) == pytest.approx(
            scale * strong_norm(A, lat, 2.0, 0.1), rel=1e-12
        )
    assert weak_norm(0 * A, lat, 2.0, 0.3, 0.1) == 0.0


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
