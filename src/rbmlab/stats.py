"""Spectral statistics: semicircle distance, local-law ratios,
delocalization, equidistribution traces and bounds and gap ratios.

Reference values for comparisons (GUE, Poisson) are always produced by
sampling oracles inside the same run; no literature constants enter any
assertion.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    InsufficientSamplesError,
    ParameterError,
    WindowError,
)
from .lattice import TorusLattice, row_blocks
from .profile import VarianceProfile
from .propagators import b_kernel
from .spectral import ResolventContext, SpectralData

__all__ = [
    "TestDiagonal",
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
]

_TRACE_TOL = 1e-10
QUE_BOUND_MIN_DRAWS = 20  # fewest traces que_bound_ratio averages
LOCAL_LAW_MAX_E = 1.9  # largest |E| local_law_ratios admits: the bulk
SEMICIRCLE_MIN_EIGS = 16  # fewest eigenvalues semicircle_distance takes
GAP_RATIO_MIN_BULK = 50  # fewest bulk eigenvalues gap_ratio_mean averages over


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


def semicircle_cdf(x) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


def semicircle_distance(eigs) -> float:
    """Kolmogorov-Smirnov distance between the empirical CDF of the
    eigenvalues eigs and the semicircle CDF on [-2, 2]."""
    lam = np.sort(np.asarray(eigs, dtype=float))
    n = lam.size
    if n < SEMICIRCLE_MIN_EIGS:
        raise ParameterError(f"need at least {SEMICIRCLE_MIN_EIGS} eigenvalues, got {n}")
    F = semicircle_cdf(lam)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(F - i / n), np.abs(F - (i - 1) / n))))


def local_law_ratios(ctx: ResolventContext) -> tuple:
    """Entrywise comparison of G against its deterministic approximation,
    with B_xy from the band width W of the context's profile.

    Returns (max_diag_gap, shell_max): max_x |G_xx - m| and, for distances
    1..max, the largest |G_xy|^2 / (B_xy + 1/(N eta)) at that distance, so
    shell_max.max() is the largest off-diagonal ratio."""
    if abs(ctx.E) > LOCAL_LAW_MAX_E:
        raise ParameterError(f"bulk statistic requires |E| <= {LOCAL_LAW_MAX_E}, got {ctx.E}")
    lat = ctx.lattice
    n = ctx.N
    W = ctx.profile.W
    dist = lat.distance_fft
    G = ctx.G

    diag_gap = float(np.max(np.abs(np.diagonal(G) - ctx.m)))
    # B_xy + 1/(N eta) is one number per distance shell, and division by a
    # fixed positive number keeps order even after rounding: the largest
    # ratio on a shell is the shell's largest |G_xy|^2 over its denominator
    # (raveled: ufunc.at has its fast path for 1-d indices only); rows go in
    # lattice.row_blocks, so the distance gather and the |G|^2 temporaries
    # stay near 1 MB at any N
    max_dist = int(dist.max())
    shell_max = np.zeros(max_dist + 1)
    gather = lat.kernel_rows(dist)
    for r0, r1 in row_blocks(n):
        dmat = gather(np.arange(r0, r1))
        np.maximum.at(shell_max, dmat.ravel(), (np.abs(G[r0:r1]) ** 2).ravel())
    denom = np.empty(max_dist + 1)
    denom[dist] = b_kernel(lat, W)
    shell_max /= denom + 1.0 / (n * ctx.eta)
    return diag_gap, shell_max[1:]


def deloc_supnorm(spec: SpectralData, kappa: float) -> float:
    """Max over bulk eigenvectors (|lambda| <= 2 - kappa) of ||u||_inf^2."""
    if not 0 < kappa < 2:
        raise ParameterError(f"kappa must be in (0, 2), got {kappa}")
    # the eigenvalues ascend, so the bulk is one contiguous run of columns:
    # a slice is a view, where a boolean mask would copy them
    edge = 2.0 - kappa
    lo = np.searchsorted(spec.eigenvalues, -edge, side="left")
    hi = np.searchsorted(spec.eigenvalues, edge, side="right")
    if lo >= hi:
        raise WindowError(f"no eigenvalues in the bulk window |x| <= {edge}")
    return float(np.max(np.abs(spec.eigenvectors[:, lo:hi]) ** 2))


def que_trace(ctx: ResolventContext, pi: TestDiagonal) -> float:
    """trace((Im G) Pi (Im G) Pi) = sum_xy |(Im G)_xy|^2 Pi_x Pi_y, as Im G
    is Hermitian.  Rows of Im G go in lattice.row_blocks, so beside G it
    holds no N x N temporary.

    The spectral double sum over an eigendecomposition of the same sample,
    overlap_bound_check's trace, is its oracle: an exact identity.
    """
    n = ctx.N
    if pi.values.shape != (n,):
        raise ContractError(
            f"diagonal has {pi.values.shape}, sample has N={n}"
        )
    G = ctx.G
    total = 0.0
    for r0, r1 in row_blocks(n):
        im = G[r0:r1] - G[:, r0:r1].conj().T  # 2i times rows r0:r1 of Im G
        total += pi.values[r0:r1] @ ((im.real**2 + im.imag**2) @ pi.values)
    return float(total / 4.0)


def que_bound_ratio(traces, prof: VarianceProfile, pi: TestDiagonal) -> tuple:
    """Mean of |trace((Im G) Pi (Im G) Pi)| over per-draw traces (que_trace
    of one resolvent each) against the scale
    (sum_y |Pi_y|) * (max_x sum_y B_xy |Pi_y|).

    Returns (mean, stderr, bound_scale)."""
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
    return mean, se, bound


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
    trace is the spectral double sum w M w of _overlaps, the oracle of
    que_trace."""
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


def gap_ratio_mean(eigs, kappa: float) -> float:
    """Mean consecutive-gap ratio min(d_i, d_{i+1}) / max(d_i, d_{i+1})
    over bulk eigenvalues |lambda| <= 2 - kappa of eigs.  Zero spacings
    from exact degeneracies are discarded."""
    lam = np.sort(np.asarray(eigs, dtype=float))
    gaps = np.diff(lam)
    center = lam[1:-1]
    g1, g2 = gaps[:-1], gaps[1:]
    keep = np.abs(center) <= 2.0 - kappa
    if keep.sum() < GAP_RATIO_MIN_BULK:
        raise WindowError(
            f"need at least {GAP_RATIO_MIN_BULK} bulk eigenvalues, found {int(keep.sum())}"
        )
    g1, g2 = g1[keep], g2[keep]
    hi = np.maximum(g1, g2)
    nz = hi > 0
    r = np.minimum(g1, g2)[nz] / hi[nz]
    return float(r.mean())

