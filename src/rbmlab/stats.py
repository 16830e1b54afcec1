"""Spectral statistics: semicircle distance, local-law ratios,
delocalization, equidistribution traces and bounds, gap ratios, polygon
averages, and the diagnostic operator norms.

Reference values for comparisons (GUE, Poisson) are always produced by
sampling oracles inside the same run; no literature constants enter any
assertion.
"""

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CapacityError,
    ContractError,
    InsufficientSamplesError,
    ParameterError,
    WindowError,
)
from .lattice import TorusLattice
from .profile import VarianceProfile
from .propagators import PropagatorSet, b_kernel, d_eta_exponent
from .spectral import ResolventContext, SpectralData, eigensolve
from .tables import table_text

__all__ = [
    "TestDiagonal",
    "Metric",
    "StatReport",
    "box_indicator",
    "random_trace_zero",
    "semicircle_cdf",
    "semicircle_distance",
    "local_law_ratios",
    "deloc_supnorm",
    "que_trace",
    "que_bound_ratio",
    "overlap_bound_check",
    "gap_ratio_mean",
    "pgon_average",
    "g_comparison",
    "diagnostic_norms",
]

_TRACE_TOL = 1e-10
PGON_TERM_CAP = 10**8
QUE_BOUND_MIN_DRAWS = 20  # fewest traces que_bound_ratio averages


@dataclass(frozen=True)
class TestDiagonal:
    """Real diagonal test matrix; trace_zero enforces sum(values) ~ 0."""

    __test__ = False  # not a pytest class, despite the name

    values: np.ndarray
    trace_zero: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.trace_zero and abs(v.sum()) > _TRACE_TOL:
            raise ContractError(
                f"trace-zero diagonal has |sum| = {abs(v.sum()):.3e} > {_TRACE_TOL:.0e}"
            )


def box_indicator(lat: TorusLattice, side: int) -> TestDiagonal:
    """Pi_x = (N/|I|) 1_{x in I} - 1 for the corner box of the given side."""
    if not 1 <= side <= lat.L:
        raise ParameterError(f"box side must be in [1, L], got {side}")
    axis_idx = lat.coords + lat.shift  # shifted coordinates in [0, L)
    inside = np.all(axis_idx < side, axis=1)
    size = int(inside.sum())
    vals = np.where(inside, lat.N / size, 0.0) - 1.0
    vals -= vals.sum() / lat.N  # absorb round-off so the zero trace is exact
    return TestDiagonal(vals, trace_zero=True)


def random_trace_zero(lat: TorusLattice, rng: np.random.Generator) -> TestDiagonal:
    v = rng.standard_normal(lat.N)
    v -= v.mean()
    return TestDiagonal(v, trace_zero=True)


@dataclass(frozen=True)
class Metric:
    value: float
    definition: str
    n: int = 1
    stderr: Optional[float] = None


@dataclass
class StatReport:
    """Named scalar metrics with definitions; optional row tables for CSV."""

    name: str
    params: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name -> (header, rows)

    def add(self, name, value, definition, n=1, stderr=None):
        self.metrics[name] = Metric(float(value), definition, int(n), stderr)

    def __getitem__(self, name) -> float:
        return self.metrics[name].value

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "params": self.params,
            "metrics": {
                k: {
                    "value": m.value,
                    "stderr": m.stderr,
                    "n": m.n,
                    "definition": m.definition,
                }
                for k, m in self.metrics.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def csv_text(self) -> str:
        """Metrics as CSV text, one row per metric in name order; commas in
        a definition become semicolons, so no field is quoted."""
        rows = [
            [k, m.value, "" if m.stderr is None else m.stderr, m.n, m.definition.replace(",", ";")]
            for k, m in sorted(self.metrics.items())
        ]
        return table_text(["metric", "value", "stderr", "n", "definition"], rows)


def semicircle_cdf(x) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


def _eigenvalues_of(spec_or_eigs) -> np.ndarray:
    if isinstance(spec_or_eigs, SpectralData):
        return np.sort(spec_or_eigs.eigenvalues)
    return np.sort(np.asarray(spec_or_eigs, dtype=float))


def semicircle_distance(spec) -> float:
    """Kolmogorov-Smirnov distance between the empirical spectral CDF and
    the semicircle CDF on [-2, 2]."""
    lam = _eigenvalues_of(spec)
    n = lam.size
    if n < 16:
        raise ParameterError(f"need at least 16 eigenvalues, got {n}")
    F = semicircle_cdf(lam)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(F - i / n), np.abs(F - (i - 1) / n))))


def local_law_ratios(ctx: ResolventContext, props: PropagatorSet) -> StatReport:
    """Entrywise comparison of G against its deterministic approximation:
    max_x |G_xx - m| and max_{x!=y} |G_xy|^2 / (B_xy + 1/(N eta)), plus the
    distance-shell profile of the off-diagonal ratio."""
    if abs(ctx.E) > 1.9:
        raise ParameterError(f"bulk statistic requires |E| <= 1.9, got {ctx.E}")
    lat = ctx.lattice
    n = ctx.N
    W = props.profile.W
    dist = lat.distance_fft
    G = ctx.G

    diag_gap = float(np.max(np.abs(np.diagonal(G) - ctx.m)))
    # B_xy + 1/(N eta) is one number per distance shell, and division by a
    # fixed positive number keeps order even after rounding: the largest
    # ratio on a shell is the shell's largest |G_xy|^2 over its denominator
    # (raveled: ufunc.at has its fast path for 1-d indices only)
    max_dist = int(dist.max())
    shell_max = np.zeros(max_dist + 1)
    block = max(1, (1 << 22) // n)
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        dmat = lat.kernel_matrix(dist, np.arange(r0, r1))
        np.maximum.at(shell_max, dmat.ravel(), (np.abs(G[r0:r1]) ** 2).ravel())
    denom = np.empty(max_dist + 1)
    denom[dist] = b_kernel(lat, W)
    shell_max /= denom + 1.0 / (n * ctx.eta)

    report = StatReport(
        "local_law_ratios",
        params={"z": str(ctx.z), "N": n, "W": W},
    )
    report.add("max_diag_gap", diag_gap, "max_x |G_xx - m(z)|")
    report.add(
        "max_offdiag_ratio", shell_max[1:].max(), "max_{x!=y} |G_xy|^2 / (B_xy + 1/(N eta))"
    )
    report.tables["ratio_shells"] = (
        ["distance", "max_ratio"],
        [[s, shell_max[s]] for s in range(1, max_dist + 1)],
    )
    return report


def deloc_supnorm(spec: SpectralData, kappa: float) -> float:
    """Max over bulk eigenvectors (|lambda| <= 2 - kappa) of ||u||_inf^2."""
    if not 0 < kappa < 2:
        raise ParameterError(f"kappa must be in (0, 2), got {kappa}")
    bulk = np.abs(spec.eigenvalues) <= 2.0 - kappa
    if not bulk.any():
        raise WindowError(f"no eigenvalues in the bulk window |x| <= {2 - kappa}")
    return float(np.max(np.abs(spec.eigenvectors[:, bulk]) ** 2))


def _im_g(G: np.ndarray) -> np.ndarray:
    return (G - G.conj().T) / 2j


def que_trace(
    ctx: ResolventContext,
    pi: TestDiagonal,
    method: str = "resolvent",
    spec: Optional[SpectralData] = None,
) -> float:
    """trace((Im G) Pi (Im G) Pi), by matrix products or by the spectral
    double sum sum_{ab} eta^2 |<u_a, Pi u_b>|^2 / (|l_a-z|^2 |l_b-z|^2).

    The two methods are an exact identity and agree to round-off.
    """
    if pi.values.shape != (ctx.N,):
        raise ContractError(
            f"diagonal has {pi.values.shape}, sample has N={ctx.N}"
        )
    if method == "resolvent":
        M = _im_g(ctx.G) * pi.values[None, :]
        return float(np.real(np.sum(M * M.T)))
    if method == "spectral":
        w, M = _overlaps(spec or eigensolve(ctx.sample), ctx.z, pi)
        return float(w @ M @ w)
    raise ParameterError(f"method must be 'resolvent' or 'spectral', got {method!r}")


def que_bound_ratio(traces, prof: VarianceProfile, pi: TestDiagonal) -> StatReport:
    """Mean of |trace((Im G) Pi (Im G) Pi)| over per-draw traces (que_trace
    of one resolvent each) against the scale
    (sum_y |Pi_y|) * (max_x sum_y B_xy |Pi_y|); flags ratios above 100."""
    if not pi.trace_zero or not np.any(pi.values):
        raise ContractError("que_bound_ratio requires a nonzero trace-zero diagonal")
    vals = np.abs(np.asarray(traces, dtype=float))
    n = vals.size
    if n < QUE_BOUND_MIN_DRAWS:
        raise InsufficientSamplesError(f"need at least {QUE_BOUND_MIN_DRAWS} traces, got {n}")
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n))

    lat = prof.lattice
    pi_abs = np.abs(pi.values)
    bound = float(pi_abs.sum() * lat.convolve(b_kernel(lat, prof.W), pi_abs).max())

    report = StatReport("que_bound_ratio", params={"trials": n, "N": lat.N})
    report.add("trace_mean_abs", mean, "E|trace((Im G) Pi (Im G) Pi)| estimate", n, se)
    report.add("bound_scale", bound, "(sum_y |Pi_y|) * (max_x sum_y B_xy |Pi_y|)")
    report.add("ratio", mean / bound, "trace_mean_abs / bound_scale", n)
    report.add("ratio_flagged", float(mean / bound > 100.0), "1 if ratio > 100")
    return report


def _overlaps(spec: SpectralData, z: complex, pi: TestDiagonal):
    """(w, M): the spectral weights w_a = eta / |l_a - z|^2 and the overlaps
    M_ab = |<u_a, Pi u_b>|^2, so that trace((Im G) Pi (Im G) Pi) = w M w."""
    U = spec.eigenvectors
    w = z.imag / (np.abs(spec.eigenvalues - z) ** 2)
    M = np.abs(U.conj().T @ (pi.values[:, None] * U)) ** 2
    return w, M


def overlap_bound_check(spec: SpectralData, z: complex, pi: TestDiagonal, l: float):
    """Deterministic per-realization inequality: the eigenvector-overlap
    mass in an energy window of half-width l is at most (4 l^4 / eta^2)
    trace((Im G) Pi (Im G) Pi).  Returns (lhs, rhs, holds, trace), where
    trace equals que_trace(..., "spectral", spec=spec)."""
    z = complex(z)
    eta = z.imag
    if l < eta:
        raise ParameterError(f"window half-width l={l} must be >= eta={eta}")
    w, M = _overlaps(spec, z, pi)
    inside = np.abs(spec.eigenvalues - z.real) <= l
    lhs = float(np.sum(M[np.ix_(inside, inside)]))
    trace = float(w @ M @ w)
    rhs = float(4.0 * l**4 / eta**2 * trace)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-8), trace


def gap_ratio_mean(spec, kappa: float) -> float:
    """Mean consecutive-gap ratio min(d_i, d_{i+1}) / max(d_i, d_{i+1})
    over bulk eigenvalues |lambda| <= 2 - kappa.  Zero spacings from exact
    degeneracies are discarded."""
    lam = _eigenvalues_of(spec)
    gaps = np.diff(lam)
    center = lam[1:-1]
    g1, g2 = gaps[:-1], gaps[1:]
    keep = np.abs(center) <= 2.0 - kappa
    if keep.sum() < 50:
        raise WindowError(
            f"need at least 50 bulk eigenvalues, found {int(keep.sum())}"
        )
    g1, g2 = g1[keep], g2[keep]
    hi = np.maximum(g1, g2)
    nz = hi > 0
    r = np.minimum(g1, g2)[nz] / hi[nz]
    return float(r.mean())


def pgon_average(ctx: ResolventContext, sites, p: int, signs) -> tuple:
    """Cyclic resolvent-chain average over a site subset:
    |I|^{-p} sum_{x_1..x_p in I} prod_i G^{s_i}_{x_i x_{i+1}} with
    x_{p+1} = x_1 and G^- the conjugate transpose.

    Returns (value, scale) with the dimensionless comparison scale
    g_comparison(K, W, eta)^{p-1}, K = |I|^{1/d}.
    """
    sites = np.asarray(sites, dtype=int)
    if sites.size < 2 or p < 2:
        raise ParameterError("need |I| >= 2 and p >= 2")
    if len(signs) != p:
        raise ContractError(f"signs has length {len(signs)}, expected p={p}")
    if float(sites.size) ** p > PGON_TERM_CAP:
        raise CapacityError(f"|I|^p exceeds cap {PGON_TERM_CAP}")
    sub = ctx.G[np.ix_(sites, sites)]
    mats = [sub if s in (1, "+") else sub.conj().T for s in signs]
    prod = mats[0]
    for mat in mats[1:]:
        prod = prod @ mat
    value = complex(np.trace(prod) / sites.size**p)
    if ctx.profile is None:
        raise ContractError("pgon_average requires a context built with a profile")
    K = sites.size ** (1.0 / ctx.lattice.d)
    scale = g_comparison(K, ctx.profile.W, ctx.eta, ctx.lattice) ** (p - 1)
    return value, float(scale)


def g_comparison(K: float, W: float, eta: float, lat: TorusLattice) -> float:
    """Concentration scale for chain averages over boxes of side K."""
    d = lat.d
    N = lat.N
    L = lat.L
    inv_neta = 1.0 / (N * eta)
    first = (
        1.0 / (W**2 * K ** (d - 2))
        + inv_neta
        + K ** (-d / 2.0) * np.sqrt(inv_neta * L**2 / W**2)
    )
    second = 1.0 / (W**4 * K ** (d - 4)) + inv_neta * L**2 / W**2
    return float(np.sqrt(first * second))


_NORM_CAP = 2048


def _pair_distances(lat: TorusLattice) -> np.ndarray:
    return lat.kernel_matrix(lat.distance_fft)


def weak_norm(A: np.ndarray, lat: TorusLattice, W: float, eta: float, delta0: float) -> float:
    """Scaled max entry plus the shell-sum supremum over dyadic radii
    K in [W, L/2], each shell normalized by K^d sqrt(g_comparison(K)).
    Homogeneous of degree 1 in A."""
    absA = np.abs(A)
    de = d_eta_exponent(W, lat.L, eta, lat.d, delta0)
    out = W**de * float(absA.max())
    T = absA + absA.T
    dists = _pair_distances(lat)
    Ks = []
    k = W
    while k <= lat.L / 2:
        Ks.append(k)
        k *= 2
    if not Ks:
        Ks = [lat.L / 2]
    shell_term = 0.0
    for K in Ks:
        ball = (dists <= K).astype(float)  # ball[x0, y]
        sums = T @ ball.T  # sums[x, x0] = sum_{y: |y - x0| <= K} T[x, y]
        shell_term = max(
            shell_term,
            float(sums.max()) / (K**lat.d * np.sqrt(g_comparison(K, W, eta, lat))),
        )
    return out + shell_term


def strong_norm(A: np.ndarray, lat: TorusLattice, W: float, Phi: float) -> float:
    """max |A_xy| / (W^-1 <x-y>^{1-d/2} + Phi); homogeneous of degree 1."""
    dists = _pair_distances(lat)
    denom = W ** (-1.0) * (dists + W) ** (1.0 - lat.d / 2.0) + Phi
    return float((np.abs(A) / denom).max())


def diagnostic_norms(
    ctx: ResolventContext, props: PropagatorSet, Phi: float, delta0: float = 0.1
) -> StatReport:
    """Report-only diagnostic norms of A = G - m I.

    The weak norm combines the scaled max entry with shell sums over
    dyadic radii K in [W, L/2]; the strong norm divides each entry by
    W^{-1} <x-y>^{1 - d/2} + Phi.  Also reports the two flow-derivative
    observables formed from diagonal and squared-resolvent contractions
    against the centered kernel.
    """
    if Phi <= 0:
        raise ParameterError(f"Phi must be positive, got {Phi}")
    lat = ctx.lattice
    n = ctx.N
    if n > _NORM_CAP:
        raise CapacityError(f"diagnostic_norms gated to N <= {_NORM_CAP}, got {n}")
    W = props.profile.W
    A = ctx.G - ctx.m * np.eye(n)
    wnorm = weak_norm(A, lat, W, ctx.eta, delta0)
    snorm = strong_norm(A, lat, W, Phi)

    s0 = props.profile.dense_matrix() - 1.0 / n
    G = ctx.G
    Gsq = G @ G
    variants = [(G, Gsq), (G.conj().T, Gsq.conj().T)]
    l1 = 0.0
    l2 = 0.0
    for _, g1sq in variants:
        for g2m, g2sq in variants:
            l1 += abs(np.sum(np.diagonal(g1sq)[:, None] * s0 * np.diagonal(g2m)[None, :])) / n
            l2 += abs(np.sum(g1sq * s0 * g2sq.T)) / n**2

    report = StatReport(
        "diagnostic_norms",
        params={"z": str(ctx.z), "N": n, "W": W, "Phi": Phi, "delta0": delta0},
    )
    report.add("weak_norm", wnorm, "W^d_eta max|A| + dyadic shell-sum supremum")
    report.add("strong_norm", snorm, "max |A_xy| / (W^-1 <x-y>^{1-d/2} + Phi)")
    report.add("flow_observable_1", l1, "sum over resolvent pairs of |N^-1 sum_ab (G1^2)_aa s0_ab (G2)_bb|")
    report.add("flow_observable_2", l2, "sum over resolvent pairs of |N^-2 sum_ab (G1^2)_ab s0_ab (G2^2)_ba|")
    return report
