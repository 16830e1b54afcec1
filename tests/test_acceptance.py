"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one [PASS] line on success (run with -s or -rA to see them).

The heavy criteria (second-order expansion statistics, OU moments, the
N=4096 local-law sweep, the 200-trial universality comparison) run at the
exact sizes stated; expect the full module to take tens of minutes on one
core.
"""

import json

import numpy as np
import pytest

from rbmlab.harness import ExperimentConfig, rerun, run
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape
from rbmlab.propagators import (
    PropagatorSet,
    dense_s_plus,
    dense_theta,
    dense_theta_circ,
)
from rbmlab.sampler import (
    HermitianSample,
    Provenance,
    ou_evolve,
    sample_band,
    sample_band_batch,
    sample_gue,
)
from rbmlab.spectral import (
    eigensolve,
    eigenvalues,
    resolvent,
    second_order_residual,
    second_order_terms,
    semicircle_m,
    t_three,
    ward_residual,
    zero_mode_split,
)
from rbmlab.stats import gap_ratio_mean, overlap_bound_check, que_trace, random_trace_zero
from rbmlab.graphs import (
    Atom,
    AtomicGraph,
    Edge,
    EdgeKind,
    evaluate,
    is_doubly_connected,
    scaling_order,
    second_order_graphs,
    standard_bindings,
)

SEED = 20240817


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


@pytest.fixture(scope="module")
def ward_draws():
    """100 (context, profile) draws across d in {1,2,3}, L <= 32, W in {2,4}."""
    import warnings

    combos = [
        (1, 16, 2.0), (1, 32, 2.0), (1, 16, 4.0), (1, 32, 4.0),
        (2, 6, 2.0), (2, 8, 2.0), (2, 6, 4.0), (2, 8, 4.0),
        (3, 4, 2.0), (3, 6, 2.0), (3, 4, 4.0), (3, 6, 4.0),
    ]
    with warnings.catch_warnings():
        # the W=4 combos at small L intentionally wrap the band
        warnings.filterwarnings("ignore", message="L=.* band wraps")
        profiles = {c: build_profile(get_shape("gaussian"), c[2], TorusLattice(c[0], c[1])) for c in combos}
    rng = np.random.default_rng(SEED)
    draws = []
    for t in range(100):
        prof = profiles[combos[t % len(combos)]]
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.05, 1.0))
        ctx = resolvent(sample_band(prof, SEED, t), z, prof, check=False)
        draws.append(ctx)
    return draws


def test_criterion_01_ward_identity(ward_draws):
    worst = 0.0
    for ctx in ward_draws:
        resid = ward_residual(ctx)
        allowed = 1e-9 * max(1.0, ctx.N * float(np.max(np.abs(ctx.G))) ** 2)
        assert resid <= allowed
        worst = max(worst, resid / allowed)
    _report(1, f"Ward identity residual on 100 draws; worst residual/allowed = {worst:.2e}")


def test_criterion_02_semicircle_transform():
    # eta from 0.05 up, matching the range every other criterion works in;
    # below ~1e-2 the identity value grows like 1/eta and the 1e-12 absolute
    # tolerance stops being meaningful in double precision
    rng = np.random.default_rng(SEED + 1)
    zs = rng.uniform(-3, 3, 1000) + 1j * rng.uniform(0.05, 2.0, 1000)
    ms = semicircle_m(zs)
    eq = np.abs(ms * ms + zs * ms + 1)
    assert np.max(eq) <= 1e-12
    imag_id = np.abs(np.abs(ms) ** 2 / (1 - np.abs(ms) ** 2) - ms.imag / zs.imag)
    assert np.max(imag_id) <= 1e-12
    assert np.all(ms.imag > 0)
    assert abs(semicircle_m(1j) - 1j * (np.sqrt(5) - 1) / 2) <= 1e-14
    _report(2, f"m(z) contract on 1000 points; worst |m^2+zm+1| = {np.max(eq):.2e}")


def test_criterion_03_zero_mode_split(ward_draws):
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for ctx in ward_draws:
        n = ctx.N
        a, b1, b2 = (int(rng.integers(0, n)) for _ in range(3))
        tc, zm = zero_mode_split(ctx, a, b1, b2)
        tt = t_three(ctx, a, b1, b2)
        rel = abs(tt - (tc + zm)) / max(abs(tt), 1e-300)
        assert rel <= 1e-12
        worst = max(worst, rel)
    _report(3, f"zero-mode split reconstruction on 100 draws; worst rel err = {worst:.2e}")


def test_criterion_04_propagator_oracles():
    rng = np.random.default_rng(SEED + 3)
    worst_gap = worst_const = worst_sum = 0.0
    for d, L, W in [(1, 64, 4.0), (2, 16, 2.0), (3, 8, 2.0)]:
        lat = TorusLattice(d, L)
        prof = build_profile(get_shape("gaussian"), W, lat)
        idx = np.arange(lat.N)
        pf = lat.diff_flat(idx[:, None], idx[None, :])
        for _ in range(5):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.0))
            props = PropagatorSet.build(prof, z)
            d_tc = dense_theta_circ(prof, z)
            d_t = dense_theta(prof, z)
            d_sp = dense_s_plus(prof, z)
            gap = max(
                float(np.max(np.abs(d_tc - props.theta_circ_fft.ravel()[pf]))),
                float(np.max(np.abs(d_t - props.theta_fft.ravel()[pf]))),
                float(np.max(np.abs(d_sp - props.s_plus_fft.ravel()[pf]))),
                float(np.max(np.abs(d_sp.conj() - props.s_minus_fft.ravel()[pf]))),
            )
            assert gap <= 1e-8
            shift = semicircle_m(z).imag / (lat.N * z.imag)
            const = float(np.max(np.abs((d_t - d_tc) - shift)))
            assert const <= 1e-12
            total = abs(float(props.theta_circ_fft.sum()))
            assert total <= 1e-10
            worst_gap = max(worst_gap, gap)
            worst_const = max(worst_const, const)
            worst_sum = max(worst_sum, total)
    _report(4, f"FFT vs dense propagators; worst gap = {worst_gap:.2e}, "
               f"shift dev = {worst_const:.2e}, sum = {worst_sum:.2e}")


def test_criterion_05_second_order_expansion():
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(1, 8))
    z = 0.2 + 0.5j
    lines = []
    triples = [(0, 0, 0), (0, 1, 3), (2, 5, 5)]
    results = second_order_residual(prof, z, triples, trials=200_000, seed=SEED + 4)
    for sites, res in zip(triples, results):
        assert abs(res.mean.real) <= 5 * res.stderr_re, (sites, res)
        assert abs(res.mean.imag) <= 5 * res.stderr_im, (sites, res)
        zr, zi = res.zscores
        lines.append(f"{sites}: z = ({zr:.2f}, {zi:.2f})")
    _report(5, "second-order expansion statistical zero at 2e5 trials; " + "; ".join(lines))


def _dc_truth_table():
    """15 hand-built cases for the two-net spanning decision."""
    I = True
    def ia(*ids, internal=I):
        return tuple(Atom(i, internal) for i in ids)

    D, B, R, F, GH, WV = (EdgeKind.DIFFUSIVE, EdgeKind.G_BLUE, EdgeKind.G_RED,
                          EdgeKind.FREE, EdgeKind.GHOST, EdgeKind.WAVED)
    cases = [
        # the three stated trivial cases
        (AtomicGraph(ia(0, 1), (Edge(0, 1, D), Edge(0, 1, D))), True),
        (AtomicGraph(ia(0, 1), (Edge(0, 1, D), Edge(0, 1, B))), True),
        (AtomicGraph(ia(0, 1), (Edge(0, 1, D),)), False),
        # vacuous: one internal molecule / only external molecules
        (AtomicGraph(ia(0), ()), True),
        (AtomicGraph(tuple(Atom(i, False) for i in (0, 1)), (Edge(0, 1, D),)), True),
        # blue net from free and ghost edges
        (AtomicGraph(ia(0, 1), (Edge(0, 1, D), Edge(0, 1, F))), True),
        (AtomicGraph(ia(0, 1), (Edge(0, 1, D), Edge(0, 1, GH))), True),
        # red solid edges are unusable; black net needs diffusive edges
        (AtomicGraph(ia(0, 1), (Edge(0, 1, D), Edge(0, 1, R))), False),
        (AtomicGraph(ia(0, 1), (Edge(0, 1, B), Edge(0, 1, B))), False),
        # three-molecule chains and cycles
        (AtomicGraph(ia(0, 1, 2), (Edge(0, 1, D), Edge(1, 2, D), Edge(0, 1, B), Edge(1, 2, B))), True),
        (AtomicGraph(ia(0, 1, 2), (Edge(0, 1, D), Edge(1, 2, D), Edge(0, 2, B))), False),
        (AtomicGraph(ia(0, 1, 2), (Edge(0, 1, D), Edge(1, 2, D), Edge(0, 2, D))), False),
        (AtomicGraph(ia(0, 1, 2), (Edge(0, 1, D), Edge(0, 1, D), Edge(1, 2, D), Edge(1, 2, D))), True),
        # external molecule (atom 2) and its edges drop out
        (AtomicGraph(ia(0, 1) + (Atom(2, False),),
                     (Edge(0, 1, D), Edge(0, 1, D), Edge(0, 2, D), Edge(1, 2, B))), True),
        # waved edges merge atoms into molecules before the decision
        (AtomicGraph(ia(0, 1, 2, 3),
                     (Edge(0, 1, WV), Edge(2, 3, WV), Edge(0, 2, D), Edge(1, 3, B))), True),
    ]
    return cases


def test_criterion_06_graph_calculus():
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(1, 8))
    z = 0.2 + 0.5j
    props = PropagatorSet.build(prof, z)
    theta_rows = {a: props.theta_circ_at(a, np.arange(8)) for a in (0, 2)}
    worst = 0.0
    for t in range(20):
        ctx = resolvent(sample_band(prof, SEED + 5, t), z, prof, check=False)
        for sites in [(0, 0, 0), (0, 1, 3), (2, 5, 5)]:
            graphs = second_order_graphs(*sites)
            vals = [evaluate(g, ctx, props, standard_bindings(*sites)) for g in graphs]
            _, lead, zm, corr = second_order_terms(ctx, theta_rows[sites[0]], *sites)
            for got, want in zip(vals, (lead, zm)):
                assert abs(got - want) <= 1e-10
            assert abs(vals[2] + vals[3] - corr) <= 1e-10
            gap = abs(sum(vals) - (lead + zm + corr))
            assert gap <= 1e-10
            worst = max(worst, gap)
    assert [scaling_order(g) for g in second_order_graphs(0, 1, 3)] == [3, 0, 3, 3]
    table = _dc_truth_table()
    assert len(table) == 15
    for g, want in table:
        assert is_doubly_connected(g)[0] == want, (g, want)
    _report(6, f"graph evaluation vs spectral sums on 20 draws (worst gap {worst:.2e}); "
               "orders [3, 0, 3, 3]; 15/15 doubly-connected cases")


def test_criterion_07_que_trace_identity():
    lat = TorusLattice(1, 32)
    prof = build_profile(get_shape("gaussian"), 4.0, lat)
    z = 0.2 + 0.3j
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for t in range(50):
        sample = sample_band(prof, SEED + 6, t)
        spec = eigensolve(sample)
        ctx = resolvent(sample, z, prof, check=False)
        pi = random_trace_zero(lat, rng)
        a = que_trace(ctx, pi, "resolvent")
        b = que_trace(ctx, pi, "spectral", spec=spec)
        rel = abs(a - b) / max(abs(a), 1e-300)
        assert rel <= 1e-8
        worst = max(worst, rel)
        lhs, rhs, holds, _ = overlap_bound_check(spec, z, pi, l=2 * z.imag)
        assert holds, (lhs, rhs)
    _report(7, f"trace identity on 50 draws (worst rel gap {worst:.2e}); overlap bound held on all")


def test_criterion_08_ou_flow_law():
    lat = TorusLattice(1, 8)
    prof = build_profile(get_shape("gaussian"), 2.0, lat)
    n = lat.N
    S = prof.dense_matrix()
    times = (0.1, 0.5, 2.0)
    trials, chunk = 100_000, 1000
    acc = {t: np.zeros((n, n)) for t in times}
    acc2 = {t: np.zeros((n, n)) for t in times}
    for c0 in range(0, trials, chunk):
        h0s = [
            HermitianSample(lat, h, Provenance(SEED + 7, trial, 0.0, prof.profile_id))
            for trial, h in enumerate(sample_band_batch(prof, SEED + 7, c0, c0 + chunk), c0)
        ]
        for t in times:
            hts = [ou_evolve(h0, t, prof, SEED + 8, h0.provenance.trial).matrix for h0 in h0s]
            sq = np.abs(hts) ** 2
            acc[t] += sq.sum(axis=0)
            acc2[t] += (sq**2).sum(axis=0)
    worst = 0.0
    for t in times:
        mean = acc[t] / trials
        se = np.sqrt(np.maximum(acc2[t] / trials - mean**2, 0.0) / trials)
        target = np.exp(-t) * S + (1 - np.exp(-t)) / n
        zmat = np.abs(mean - target) / se
        assert np.max(zmat) <= 4.0, (t, np.max(zmat))
        worst = max(worst, float(np.max(zmat)))
    h0 = sample_band(prof, SEED + 7, 0)
    assert np.array_equal(ou_evolve(h0, 0.0, prof, SEED + 8, 0).matrix, h0.matrix)
    _report(8, f"OU entry-variance law at t in {times}, 1e5 trials; worst |z| = {worst:.2f}; t=0 exact")


def test_criterion_09_universality_diagnostic():
    n, trials, kappa = 400, 200, 0.5
    prof = build_profile(get_shape("gaussian"), float(n), TorusLattice(1, n))
    band = np.array([
        gap_ratio_mean(eigenvalues(sample_band(prof, SEED + 9, t)), kappa)
        for t in range(trials)
    ])
    gue = np.array([
        gap_ratio_mean(eigenvalues(sample_gue(n, SEED + 10, t)), kappa)
        for t in range(trials)
    ])
    rng = np.random.default_rng(SEED + 11)
    poisson = np.array([
        gap_ratio_mean(np.sort(rng.uniform(-2, 2, 10_000)), kappa) for _ in range(10)
    ])
    gap = abs(band.mean() - gue.mean())
    sep = abs(gue.mean() - poisson.mean())
    assert gap <= 0.01, (band.mean(), gue.mean())
    assert sep > 0.15, (gue.mean(), poisson.mean())
    _report(9, f"band(W=L) vs GUE gap-ratio means differ by {gap:.4f} <= 0.01; "
               f"GUE-Poisson separation {sep:.3f} > 0.15")


def test_criterion_10_local_law_trend():
    record = run(ExperimentConfig(
        "locallaw", d=3, L=16, W=4.0, E=0.2, eta=(0.1, 0.3, 1.0), trials=5, seed=SEED + 12,
    ))
    rep = record.report
    ratios = [rep[f"max_offdiag_ratio_eta_{e:g}"] for e in (0.1, 0.3, 1.0)]
    assert all(np.isfinite(r) for r in ratios)
    assert all(r <= 1e3 for r in ratios)
    assert rep["ratio_decreasing_in_eta"] == 1.0
    assert rep["ks_distance"] <= 0.08
    _report(10, f"local-law ratios at N=4096: {[f'{r:.2f}' for r in ratios]} decreasing, "
                f"KS = {rep['ks_distance']:.4f} <= 0.08")


def test_criterion_11_reproducibility(tmp_path):
    for cfg in (
        ExperimentConfig("wardcheck", d=2, L=6, W=2.0, trials=130, seed=SEED + 13,
                         out=str(tmp_path / "a")),
        ExperimentConfig("texp2", d=1, L=8, W=2.0, E=0.2, eta=(0.5,), trials=9000,
                         seed=SEED + 14, out=str(tmp_path / "c")),
    ):
        rec1 = run(cfg, workers=1)
        out2 = str(tmp_path / (cfg.experiment + "_re"))
        rec2 = rerun(f"{cfg.out}/manifest.json", out=out2, workers=2)
        assert rec1.report.to_json() == rec2.report.to_json()
        m1 = json.load(open(f"{cfg.out}/metrics.json"))["metrics"]
        m2 = json.load(open(f"{out2}/metrics.json"))["metrics"]
        assert m1 == m2
    _report(11, "wardcheck and texp2 reruns from manifest reproduce metrics bit-for-bit "
                "with 1 and 2 workers")
