"""Resolvents, eigendecompositions, T-variables, and the exact identities
they satisfy (Ward identity, zero-mode split, second-order expansion
residual).

Three dense routes, each for the callers that need no more than it gives:
- resolvent: G(z) = (H - z)^{-1}, one inverse per z (local law, Ward and
  T-variable checks, graph evaluation), by a 2x2 block Schur recursion
  whose work is matrix products (about N^3 complex multiply-adds, against
  4/3 N^3 for an LU solve against the identity);
- eigenvalues: the spectrum alone, with no eigenvectors (gap ratios,
  semicircle distance); about half the cost of the full eigensystem;
- eigensolve: eigenvalues and eigenvectors (QUE traces, overlap bounds,
  delocalization), from which resolvent_from_spectrum builds G(z) for
  any z without another factorization.

The GUE oracle of the universality comparison is read only through its
eigenvalue law, so gue_eigenvalues draws that law directly from the beta=2
Hermite tridiagonal model (O(N) draws, one real eigvalsh) rather than
factoring a dense complex GUE matrix; the dense sampler.sample_gue stays as
its test oracle.

The block recursion does not pivot across blocks, and need not: for
Im z = eta > 0 every leading principal block of H - z is H_11 - z with H_11
Hermitian, so its inverse has norm <= 1/eta, and every Schur complement's
inverse is a diagonal block of G, of norm <= 1/eta as well (equivalently,
i(H - z) has Hermitian part eta*I > 0).  LAPACK, with its own pivoting,
inverts the blocks at and below _BLOCK_MIN.  Every G that resolvent returns
has passed the Ward sentinel, the column Ward identity checked in O(N^2)
(ResolventContext.ward_dev).

second_order_residual takes all its site triples at once: each chunk of
trials (seeding._chunk_ranges, through the shared seeding._map_chunks) is
drawn as one stack by sampler.sample_band_batch, inverted once by
_block_inv and checked by the Ward sentinel, and every triple is evaluated
on that stack by _second_order_batch.
"""

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ContractError,
    HalfPlaneError,
    InsufficientSamplesError,
    NumericError,
    ParameterError,
)
from .profile import VarianceProfile
from .sampler import HermitianSample, sample_band_batch
from .seeding import _chunk_ranges, _map_chunks, substream_rng

__all__ = [
    "semicircle_m",
    "ResolventContext",
    "SpectralData",
    "resolvent",
    "ward_residual",
    "t_three",
    "zero_mode_split",
    "second_order_terms",
    "second_order_residual",
    "SecondOrderResult",
    "eigenvalues",
    "gue_eigenvalues",
    "eigensolve",
    "resolvent_from_spectrum",
]

_RESIDUAL_TOL = 1e-10
_WARD_SENTINEL_TOL = 1e-6  # relative; round-off gives <= 1e-10 at eta = 1e-3, ~1/eta
_BLOCK_MIN = 128  # largest block _block_inv hands to LAPACK (64-256 time alike)


def semicircle_m(z):
    """Stieltjes transform of the semicircle law: the root of
    m^2 + z m + 1 = 0 with Im m > 0, for Im z > 0."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise HalfPlaneError("semicircle_m requires Im z > 0")
    s = np.sqrt(z * z - 4.0)
    m = (-z + s) / 2.0
    m = np.where(m.imag > 0, m, (-z - s) / 2.0)
    return m if m.ndim else complex(m)


@dataclass(frozen=True)
class ResolventContext:
    """z = E + i*eta, m(z), and the resolvent of one sample."""

    z: complex
    m: complex
    G: np.ndarray = field(repr=False)
    sample: HermitianSample
    profile: Optional[VarianceProfile] = None

    @property
    def E(self) -> float:
        return self.z.real

    @property
    def eta(self) -> float:
        return self.z.imag

    @property
    def lattice(self):
        return self.sample.lattice

    @property
    def N(self) -> int:
        return self.sample.lattice.N

    @functools.cached_property
    def ward_dev(self) -> float:
        """The Ward sentinel: largest relative deviation over columns y of
        sum_x |G_xy|^2 = Im G_yy / eta; raises NumericError above
        _WARD_SENTINEL_TOL.  resolvent reads it before it returns."""
        return _ward_check(self.G, self.eta, f"sample {self.sample.provenance}, z={self.z}")


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)


def resolvent(
    sample: HermitianSample, z: complex, profile: Optional[VarianceProfile] = None,
    check: bool = True,
) -> ResolventContext:
    """Dense inverse G = (H - z)^{-1} for Im z > 0, by _block_inv, always
    checked by the Ward sentinel; check adds the O(N^3) residual test."""
    z = complex(z)
    if z.imag <= 0:
        raise HalfPlaneError("resolvent requires Im z > 0")
    h = sample.matrix
    G = _block_inv(_shifted(h, z))
    if check:
        _check_residual(h, z, G)
    ctx = ResolventContext(z, semicircle_m(z), G, sample, profile)
    ctx.ward_dev  # raises NumericError on a wrong G
    return ctx


def _shifted(h, z):
    """A copy of h, one matrix or a stack (..., N, N), with z subtracted on
    each diagonal: H - z."""
    a = h.astype(complex)
    idx = np.arange(a.shape[-1])
    a[..., idx, idx] -= z
    return a


def _block_inv(a):
    """Inverse of each matrix in a stack a of shape (..., n, n), by the 2x2
    block Schur recursion: with X = A11^{-1} and S = A22 - A21 X A12,

        G = [[X + X A12 Y A21 X, -X A12 Y], [-Y A21 X, Y]],  Y = S^{-1}.

    Six half-size products per level; blocks of n <= _BLOCK_MIN go to
    np.linalg.inv.  No pivoting across blocks: every matrix must have
    invertible leading principal blocks and Schur complements, which holds
    for H - z with H Hermitian and Im z > 0 (see the module docstring).
    """
    n = a.shape[-1]
    if n <= _BLOCK_MIN:
        return np.linalg.inv(a)
    k = n // 2
    a12, a21, a22 = a[..., :k, k:], a[..., k:, :k], a[..., k:, k:]
    x = _block_inv(a[..., :k, :k])
    nxa12 = x @ a12
    nxa12 *= -1  # -X A12
    na21x = a21 @ x
    na21x *= -1  # -A21 X
    s = a21 @ nxa12
    s += a22  # Schur complement A22 - A21 X A12
    y = _block_inv(s)
    del s  # before the output is allocated
    g = np.empty_like(a)
    g[..., k:, k:] = y
    np.matmul(nxa12, y, out=g[..., :k, k:])
    np.matmul(y, na21x, out=g[..., k:, :k])
    np.matmul(nxa12, g[..., k:, :k], out=g[..., :k, :k])
    g[..., :k, :k] += x
    return g


def _check_residual(h, z, G):
    r = _shifted(h, z) @ G
    idx = np.arange(r.shape[0])
    r[idx, idx] -= 1.0
    resid = np.max(np.abs(r))
    gmax = np.max(np.abs(G))
    if resid > _RESIDUAL_TOL * (1.0 + gmax):
        raise NumericError(
            f"resolvent residual {resid:.3e} exceeds {_RESIDUAL_TOL:.0e}*(1+|G|max)"
        )


def ward_residual(ctx: ResolventContext) -> float:
    """Max-norm residual of sum_x conj(G_xy') G_xy = (G_y'y - conj(G_yy'))/(2i eta).

    The identity is exact, so the return value is round-off scale.
    """
    G = ctx.G
    lhs = G.conj().T @ G
    rhs = (G - G.conj().T) / (2j * ctx.eta)
    return float(np.max(np.abs(lhs - rhs)))


def _ward_check(G, eta, what):
    """The Ward sentinel over a resolvent or a stack (..., N, N) of them,
    all at Im z = eta; `what` names them in the error.

    O(N^2) per matrix and free of N x N temporaries (sums over the real and
    imaginary views), so it can guard every resolvent a run computes.
    """
    col = np.einsum("...xy,...xy->...y", G.real, G.real)
    col += np.einsum("...xy,...xy->...y", G.imag, G.imag)
    rhs = np.diagonal(G, axis1=-2, axis2=-1).imag / eta
    with np.errstate(divide="ignore", invalid="ignore"):
        # col > 0 for any inverse; a negative Im G_yy then reads as dev > 1
        dev = float(np.max(np.abs(col - rhs) / col))
    if not dev <= _WARD_SENTINEL_TOL:  # also catches NaN
        raise NumericError(
            f"Ward sentinel: relative deviation {dev:.3e} exceeds "
            f"{_WARD_SENTINEL_TOL:.0e} for {what}"
        )
    return dev


def _require_profile(ctx):
    if ctx.profile is None:
        raise ContractError("operation requires a ResolventContext built with a profile")
    return ctx.profile


def t_three(ctx: ResolventContext, a: int, b1: int, b2: int) -> complex:
    """Three-subscript T-variable |m|^2 sum_x s_ax G_xb1 conj(G_xb2).

    Sites are linear indices in [0, N).
    """
    prof = _require_profile(ctx)
    G = ctx.G
    mm = abs(ctx.m) ** 2
    return complex(mm * np.dot(prof.s_row(a), G[:, b1] * G[:, b2].conj()))


def zero_mode_split(ctx: ResolventContext, a: int, b1: int, b2: int):
    """Split t_three into its centered part and the uniform-mode term.

    Returns (T_centered, zero_mode) with
    zero_mode = |m|^2 (G_b2b1 - conj(G_b1b2)) / (2i N eta); the sum of the
    two reproduces t_three exactly (up to round-off) by the Ward identity.
    """
    prof = _require_profile(ctx)
    G = ctx.G
    n = ctx.N
    mm = abs(ctx.m) ** 2
    s_centered = prof.s_row(a) - 1.0 / n
    t_circ = mm * np.dot(s_centered, G[:, b1] * G[:, b2].conj())
    zm = mm * (G[b2, b1] - np.conj(G[b1, b2])) / (2j * n * ctx.eta)
    return complex(t_circ), complex(zm)


def second_order_terms(ctx: ResolventContext, theta_row_a: np.ndarray,
                       a: int, b1: int, b2: int):
    """Per-realization pieces of the second-order expansion of t_three.

    Returns (T, leading, zero_mode, correction): T is t_three itself;
    leading = m * Theta0_ab1 * conj(G_b1b2); zero_mode as in
    zero_mode_split; correction = sum_x Theta0_ax A_x with the two
    order->2 source terms
        A_x = m sum_y s_xy (G_yy - m) G_xb1 conj(G_xb2)
            + m sum_y s_xy (conj(G_xx) - conj(m)) G_yb1 conj(G_yb2).
    The residual T - leading - zero_mode - correction has mean zero.
    """
    prof = _require_profile(ctx)
    G = ctx.G[None]  # reuse the batched kernel below
    T, lead, zm, corr = _second_order_batch(
        G, ctx.m, ctx.eta, prof.dense_matrix(), theta_row_a, a, b1, b2
    )
    return complex(T[0]), complex(lead[0]), complex(zm[0]), complex(corr[0])


def _second_order_batch(G, m, eta, S, theta_row_a, a, b1, b2):
    """Vectorized over a stack of resolvents, shape (B, N, N)."""
    n = G.shape[-1]
    mm = abs(m) ** 2
    Gd = np.diagonal(G, axis1=-2, axis2=-1)
    gb1 = G[..., :, b1]
    gb2c = G[..., :, b2].conj()
    pair = gb1 * gb2c
    sa = S[a]
    T = mm * (pair @ sa)
    lead = m * theta_row_a[b1] * G[..., b1, b2].conj()
    zm = mm / (2j * n * eta) * (G[..., b2, b1] - G[..., b1, b2].conj())
    u = (Gd - m) @ S  # sum_y s_xy (G_yy - m), S symmetric
    w = pair @ S      # sum_y s_xy G_yb1 conj(G_yb2)
    A = m * u * pair + m * (Gd.conj() - np.conj(m)) * w
    corr = A @ theta_row_a
    return T, lead, zm, corr


@dataclass(frozen=True)
class SecondOrderResult:
    mean: complex
    stderr_re: float
    stderr_im: float
    trials: int
    max_ward_sentinel_dev: float  # over every trial's resolvent

    @property
    def stderr(self) -> float:
        return float(np.hypot(self.stderr_re, self.stderr_im))

    @property
    def zscores(self):
        return (
            abs(self.mean.real) / self.stderr_re if self.stderr_re else np.inf,
            abs(self.mean.imag) / self.stderr_im if self.stderr_im else np.inf,
        )


def second_order_residual(
    prof: VarianceProfile,
    z: complex,
    sites,
    trials: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Monte Carlo means of the second-order expansion residual, one
    SecondOrderResult per site triple (a, b1, b2) in `sites`, in order.

    Each trial is drawn and inverted once, and every triple is evaluated on
    that resolvent.  The omitted fluctuation terms have zero partial
    expectation, so each residual mean is an exact statistical zero; the
    returned standard errors support a z-test per triple.  Deterministic in
    (seed, trials) for any worker count.
    """
    from .propagators import theta_circ

    if trials < 100:
        raise InsufficientSamplesError(f"need at least 100 trials, got {trials}")
    lat = prof.lattice
    sites = [tuple(int(s) for s in triple) for triple in sites]
    if not sites or any(len(t) != 3 or min(t) < 0 or max(t) >= lat.N for t in sites):
        raise ParameterError(f"need site triples with entries in [0, {lat.N}), got {sites}")
    z = complex(z)
    S = prof.dense_matrix()
    theta_rows = lat.kernel_matrix(theta_circ(prof, z), [a for a, _, _ in sites])
    partials = _map_chunks(
        _residual_chunk,
        [(prof, z, sites, theta_rows, S, seed, t0, t1) for t0, t1 in _chunk_ranges(trials)],
        workers,
    )
    sentinel = max(dev for dev, _ in partials)
    results = []
    for i in range(len(sites)):
        n, mean, m2 = functools.reduce(_merge_moments, (p[i] for _, p in partials))
        var_re, var_im = m2 / n
        results.append(SecondOrderResult(
            complex(mean), float(np.sqrt(var_re / n)), float(np.sqrt(var_im / n)), n, sentinel
        ))
    return results


def _moments(values):
    """(n, mean, M2) of complex values, with M2 = [sum of squared deviations
    of the real parts, same for the imaginary parts] about the mean."""
    mean = values.mean()
    dev = values - mean
    return values.size, mean, np.array([np.sum(dev.real**2), np.sum(dev.imag**2)])


def _merge_moments(a, b):
    """Pairwise update of two (n, mean, M2) partials (Chan, Golub and
    LeVeque), stable where sum(x^2)/n - mean^2 cancels catastrophically."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    m2 = m2_a + m2_b + np.array([delta.real**2, delta.imag**2]) * (na * nb / n)
    return n, mean_a + delta * (nb / n), m2


def _residual_chunk(args):
    """The Ward sentinel's deviation and the residual moments of every site
    triple over trials [t0, t1), from one stack of draws inverted once."""
    prof, z, sites, theta_rows, S, seed, t0, t1 = args
    m = semicircle_m(z)
    G = _block_inv(_shifted(sample_band_batch(prof, seed, t0, t1), z))
    dev = _ward_check(G, z.imag, f"seed {seed}, trials [{t0}, {t1}), z={z}")
    out = []
    for (a, b1, b2), theta_row in zip(sites, theta_rows):
        T, lead, zm, corr = _second_order_batch(G, m, z.imag, S, theta_row, a, b1, b2)
        out.append(_moments(T - lead - zm - corr))
    return dev, out


def eigenvalues(sample: HermitianSample) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian sample, without eigenvectors."""
    return _eigvalsh(sample.matrix, f"sample {sample.provenance}")


def gue_eigenvalues(n: int, seed: int, trial: int) -> np.ndarray:
    """Ascending spectrum with the law of sampler.sample_gue(n, seed, trial)'s
    eigenvalues, drawn from the beta=2 Hermite tridiagonal model.

    Dumitriu and Edelman (J. Math. Phys. 43, 2002): the real symmetric
    tridiagonal matrix with diagonal N(0, 2) and off-diagonal entries
    chi_{beta(n-i)}, i = 1..n-1, has the Gaussian beta-ensemble eigenvalue
    law; at beta = 2 that is the GUE's.  Scaled by 1/sqrt(beta n), the
    spectrum fills [-2, 2] like sample_gue's.  The draws from
    substream_rng(seed, trial) come in a fixed order: n standard normals
    (the diagonal), then n - 1 chi-squares with degrees of freedom
    2(n-1), ..., 2 (the squared off-diagonal).
    """
    if n < 2:
        raise ParameterError(f"GUE dimension must be >= 2, got {n}")
    beta = 2.0
    rng = substream_rng(seed, trial)
    scale = 1.0 / np.sqrt(beta * n)
    diag = rng.standard_normal(n) * (np.sqrt(2.0) * scale)
    off = np.sqrt(rng.chisquare(beta * np.arange(n - 1, 0, -1))) * scale
    t = np.diag(diag)
    t.flat[1 :: n + 1] = off  # superdiagonal
    t.flat[n :: n + 1] = off  # subdiagonal
    return _eigvalsh(t, f"GUE tridiagonal model (n={n}, seed={seed}, trial={trial})")


def eigensolve(sample: HermitianSample) -> SpectralData:
    """Dense Hermitian eigendecomposition, eigenvalues ascending."""
    try:
        w, v = np.linalg.eigh(sample.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigendecomposition failed for sample {sample.provenance}"
        ) from exc
    return SpectralData(_finite(w, f"sample {sample.provenance}"), v)


def _eigvalsh(a, what):
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalues failed for {what}") from exc
    return _finite(w, what)


def _finite(w, what):
    # some LAPACK drivers return NaN, rather than failing, for a NaN input
    if not np.all(np.isfinite(w)):
        raise NumericError(f"non-finite eigenvalues for {what}")
    return w


def resolvent_from_spectrum(spec: SpectralData, z: complex) -> np.ndarray:
    """G(z) = sum_a u_a u_a^* / (lambda_a - z) from an eigendecomposition."""
    z = complex(z)
    if z.imag <= 0:
        raise HalfPlaneError("resolvent requires Im z > 0")
    U = spec.eigenvectors
    p = 1.0 / (spec.eigenvalues - z)
    return (U * p) @ U.conj().T
