"""Resolvents, eigendecompositions, T-variables, and the exact identities
they satisfy (Ward identity, zero-mode split, second-order expansion
residual).

Three dense routes, each for the callers that need no more than it gives:
- resolvent: G(z) = (H - z)^{-1}, one inverse per z (local law, Ward and
  T-variable checks, graph evaluation), by a 2x2 block Schur recursion
  whose work is matrix products (about N^3 complex multiply-adds, against
  4/3 N^3 for an LU solve against the identity).  _block_inv consumes its
  argument and writes G over it, with one workspace of about N^2 / 8
  entries beside it, so one resolvent peaks near 1.14 N^2 complex entries:
  the sample's own buffer, shifted in place, that becomes G, and that
  workspace.  The context (ResolventContext) holds z, G, the sample's
  provenance and the variance profile of H, from which the T-variables,
  the local-law comparison B_xy and the graph kernels are read; m(z) and
  the lattice are derived;
- eigenvalues: the spectrum alone, with no eigenvectors (gap ratios,
  semicircle distance); about half the cost of the full eigensystem.
  LAPACK's zheevd runs in the sample's own buffer (_lapack);
- eigensolve: eigenvalues and eigenvectors (QUE traces, overlap bounds,
  delocalization), by numpy's eigh, which copies H.

Each of the three takes the sample's matrix (HermitianSample.take), so the
sample holds no matrix afterwards and a second use raises ContractError:
no route holds H beside G, beside LAPACK's copy of H, or beside H_t.

The GUE oracle of the universality comparison is read only through its
eigenvalue law, so gue_eigenvalues draws that law directly from the beta=2
Hermite tridiagonal model (O(N) draws, and LAPACK's dsterf on the
diagonal and off-diagonal vectors, O(N^2) work in O(N) memory) rather
than factoring a dense complex GUE matrix; the dense sampler.sample_gue
stays as its test oracle.

The block recursion does not pivot across blocks, and need not: for
Im z = eta > 0 every leading principal block of H - z is H_11 - z with H_11
Hermitian, so its inverse has norm <= 1/eta, and every Schur complement's
inverse is a diagonal block of G, of norm <= 1/eta as well (equivalently,
i(H - z) has Hermitian part eta*I > 0).  LAPACK, with its own pivoting,
inverts the blocks at and below _BLOCK_MIN.  Every G that resolvent returns
has passed the Ward sentinel, the column Ward identity checked in O(N^2)
(ResolventContext.ward_dev).

resolvent_stack inverts a stack of draws in place and Ward-checks it, and
_second_order_batch evaluates many site triples on that stack; the trial
loop over them is harness's (rbm texp2), like every trial loop.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import HalfPlaneError, NumericError, ParameterError
from .lattice import BLOCK_ENTRIES, TorusLattice, row_blocks
from .profile import VarianceProfile
from .sampler import HermitianSample, Provenance
from .seeding import substream_rng

__all__ = [
    "semicircle_m",
    "ResolventContext",
    "SpectralData",
    "resolvent",
    "resolvent_stack",
    "ward_residual",
    "t_three",
    "zero_mode_split",
    "second_order_terms",
    "eigenvalues",
    "gue_eigenvalues",
    "eigensolve",
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
    """The resolvent G = (H - z)^{-1} of one sample at z = E + i*eta, with
    the sample's provenance and the variance profile it was drawn from, but
    not its matrix, which the caller may free once G exists.  The lattice
    is the profile's, and m = m(z) follows from z."""

    z: complex
    G: np.ndarray = field(repr=False)
    provenance: Provenance
    profile: VarianceProfile

    @property
    def lattice(self) -> TorusLattice:
        return self.profile.lattice

    @functools.cached_property
    def m(self) -> complex:
        return semicircle_m(self.z)

    @property
    def E(self) -> float:
        return self.z.real

    @property
    def eta(self) -> float:
        return self.z.imag

    @property
    def N(self) -> int:
        return self.lattice.N

    @functools.cached_property
    def ward_dev(self) -> float:
        """The Ward sentinel: largest relative deviation over columns y of
        sum_x |G_xy|^2 = Im G_yy / eta; raises NumericError above
        _WARD_SENTINEL_TOL.  resolvent reads it before it returns."""
        return _ward_check(self.G, self.eta, f"sample {self.provenance}, z={self.z}")


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)


def resolvent(
    sample: HermitianSample, z: complex, profile: VarianceProfile, check: bool = True,
) -> ResolventContext:
    """Dense inverse G = (H - z)^{-1} for Im z > 0, by _block_inv, always
    checked by the Ward sentinel; check adds the O(N^3) residual test.
    profile is the variance profile of H, on the sample's lattice.  Takes
    the sample's matrix and writes G over it; check keeps a copy of H for
    the residual test alone."""
    z = complex(z)
    if z.imag <= 0:
        raise HalfPlaneError("resolvent requires Im z > 0")
    if profile.lattice != sample.lattice:
        raise ParameterError(
            f"profile lattice {profile.lattice} differs from sample lattice {sample.lattice}"
        )
    a = sample.take()
    h = a.copy() if check else None
    G = _block_inv(_shifted(a, z))
    if check:
        _check_residual(h, z, G)
    ctx = ResolventContext(z, G, sample.provenance, profile)
    ctx.ward_dev  # raises NumericError on a wrong G
    return ctx


def resolvent_stack(a, z: complex, what: str):
    """(G, dev): the resolvents (H - z)^{-1}, Im z > 0, of a stack a of shape
    (B, N, N), written over a by _block_inv, and the Ward sentinel's largest
    deviation over them; `what` names the stack in its NumericError."""
    if z.imag <= 0:
        raise HalfPlaneError("resolvent_stack requires Im z > 0")
    G = _block_inv(_shifted(a, z))
    return G, _ward_check(G, z.imag, what)


def _shifted(a, z):
    """a, one complex matrix or a stack (..., N, N), with z subtracted on
    each diagonal in place: H - z."""
    idx = np.arange(a.shape[-1])
    a[..., idx, idx] -= z
    return a


def _block_inv(a):
    """Inverse of each matrix in a complex matrix or stack a of shape
    (..., n, n), written over a, which is returned; a is consumed.  By the
    2x2 block Schur recursion: with X = A11^{-1}, T1 = -X A12,
    T2 = -A21 X, S = A22 + A21 T1 and Y = S^{-1},

        G = [[X + T1 Y T2, T1 Y], [Y T2, Y]].

    Each block goes over the block of a it replaces: X over A11, T1 over
    A12, S and then Y over A22, T2 over A21, G21 = Y T2 over T2,
    G11 = X + T1 G21 accumulated on X, and G12 = T1 Y over T1.  Each of
    the six half-size products is formed in two halves (_product) in one
    flat workspace allocated here and shared by every level, of about
    n^2 / 8 entries per matrix.  Blocks of n <= _BLOCK_MIN go to LAPACK,
    in sub-stacks of about BLOCK_ENTRIES entries.  No pivoting across
    blocks: every matrix must have invertible leading principal blocks and
    Schur complements, which holds for H - z with H Hermitian and
    Im z > 0 (see the module docstring).
    """
    n = a.shape[-1]
    stack = a.reshape(-1, n, n, copy=False)
    half = n - n // 2  # the larger block; its products are the largest
    size = stack.shape[0] * half * ((half + 1) // 2) if n > _BLOCK_MIN else 0
    _inv_over(stack, np.empty(size, dtype=complex))
    return a


def _inv_over(a, ws):
    """_block_inv of the (B, n, n) stack a, with the flat workspace ws."""
    n = a.shape[-1]
    if n <= _BLOCK_MIN:
        step = max(1, BLOCK_ENTRIES // (n * n))
        for i in range(0, a.shape[0], step):
            a[i : i + step] = np.linalg.inv(a[i : i + step])
        return
    k = n // 2
    a11, a12, a21, a22 = a[:, :k, :k], a[:, :k, k:], a[:, k:, :k], a[:, k:, k:]
    _inv_over(a11, ws)  # X
    _product(a11, a12, a12, ws, "-")  # T1 = -X A12
    _product(a21, a12, a22, ws, "+=")  # S = A22 + A21 T1
    _inv_over(a22, ws)  # Y
    _product(a21, a11, a21, ws, "-")  # T2 = -A21 X
    _product(a22, a21, a21, ws, "=")  # G21 = Y T2
    _product(a12, a21, a11, ws, "+=")  # G11 = X + T1 G21
    _product(a12, a22, a12, ws, "=")  # G12 = T1 Y


def _product(x, y, dst, ws, how):
    """dst = -(x @ y), dst += x @ y or dst = x @ y (how: "-", "+=", "="),
    formed in two halves in the flat workspace ws.  The halves split y's
    columns when dst is y, since column j of x @ y reads only column j of
    y, and x's rows otherwise, so dst may be either operand."""
    by_cols = dst is y
    m = y.shape[-1] if by_cols else x.shape[-2]
    h = (m + 1) // 2
    for s in (slice(0, h), slice(h, m)):
        xs, ys, ds = (x, y[..., s], dst[..., s]) if by_cols else (x[..., s, :], y, dst[..., s, :])
        shape = xs.shape[:-1] + ys.shape[-1:]
        p = np.matmul(xs, ys, out=ws[: math.prod(shape)].reshape(shape))
        if how == "-":
            np.negative(p, out=ds)
        elif how == "+=":
            ds += p
        else:
            ds[...] = p


def _check_residual(h, z, G):
    """Raise unless max |(H - z) G - I| <= _RESIDUAL_TOL (1 + |G|max).  Rows
    go in lattice.row_blocks, as HG - zG - I, so beside G the check holds
    no N x N temporary."""
    resid = gmax = 0.0
    for r0, r1 in row_blocks(G.shape[0]):
        g = G[r0:r1]
        r = h[r0:r1] @ G
        r -= z * g
        r[np.arange(r1 - r0), np.arange(r0, r1)] -= 1.0
        resid = max(resid, float(np.max(np.abs(r))))
        gmax = max(gmax, float(np.max(np.abs(g))))
    if resid > _RESIDUAL_TOL * (1.0 + gmax):
        raise NumericError(
            f"resolvent residual {resid:.3e} exceeds {_RESIDUAL_TOL:.0e}*(1+|G|max)"
        )


def ward_residual(ctx: ResolventContext) -> float:
    """Max-norm residual of sum_x conj(G_xy') G_xy = (G_y'y - conj(G_yy'))/(2i eta).

    The identity is exact, so the return value is round-off scale.  Rows
    of G^* G go in lattice.row_blocks, so beside G it holds no N x N
    temporary.
    """
    G = ctx.G
    resid = 0.0
    for r0, r1 in row_blocks(G.shape[0]):
        gh = G[:, r0:r1].conj().T  # rows r0:r1 of G^*
        r = gh @ G
        r -= (G[r0:r1] - gh) / (2j * ctx.eta)
        resid = max(resid, float(np.max(np.abs(r))))
    return resid


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


def t_three(ctx: ResolventContext, a: int, b1: int, b2: int) -> complex:
    """Three-subscript T-variable |m|^2 sum_x s_ax G_xb1 conj(G_xb2).

    Sites are linear indices in [0, N).
    """
    G = ctx.G
    mm = abs(ctx.m) ** 2
    return complex(mm * np.dot(ctx.profile.s_row(a), G[:, b1] * G[:, b2].conj()))


def zero_mode_split(ctx: ResolventContext, a: int, b1: int, b2: int):
    """Split t_three into its centered part and the uniform-mode term.

    Returns (T_centered, zero_mode) with
    zero_mode = |m|^2 (G_b2b1 - conj(G_b1b2)) / (2i N eta); the sum of the
    two reproduces t_three exactly (up to round-off) by the Ward identity.
    """
    G = ctx.G
    n = ctx.N
    mm = abs(ctx.m) ** 2
    s_centered = ctx.profile.s_row(a) - 1.0 / n
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
    T, lead, zm, corr = _second_order_batch(
        ctx.G[None], ctx.m, ctx.eta, ctx.profile, [(a, b1, b2)], np.asarray(theta_row_a)[None]
    )
    return complex(T[0, 0]), complex(lead[0, 0]), complex(zm[0, 0]), complex(corr[0, 0])


def _second_order_batch(G, m, eta, prof, sites, theta_rows):
    """second_order_terms over a stack of resolvents G, shape (B, N, N),
    and a list of site triples (a, b1, b2) whose theta_circ rows are
    theta_rows, shape (len(sites), N): (T, leading, zero_mode, correction),
    each of shape (len(sites), B).  The sums against S are convolutions
    with the profile's kernel by FFT: two per stack, for all triples."""
    n = G.shape[-1]
    mm = abs(m) ** 2
    a, b1, b2 = np.asarray(sites).T
    lat = prof.lattice
    Gd = np.diagonal(G, axis1=-2, axis2=-1)
    pair = np.moveaxis(G[..., :, b1] * G[..., :, b2].conj(), -1, 0)  # G_xb1 conj(G_xb2)
    T = mm * np.einsum("tbx,tx->tb", pair, prof.s_pairs(a[:, None], np.arange(n)))
    g12c = G[..., b1, b2].conj().T
    lead = m * theta_rows[np.arange(len(a)), b1][:, None] * g12c
    zm = mm / (2j * n * eta) * (G[..., b2, b1].T - g12c)
    u = lat.convolve(prof.kernel_fft, Gd - m)  # sum_y s_xy (G_yy - m)
    w = lat.convolve(prof.kernel_fft, pair)  # sum_y s_xy G_yb1 conj(G_yb2)
    A = m * u * pair + m * (Gd.conj() - np.conj(m)) * w
    corr = np.einsum("tbx,tx->tb", A, theta_rows)
    return T, lead, zm, corr


def eigenvalues(sample: HermitianSample) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian sample, without eigenvectors.
    Takes the sample's matrix: zheevd overwrites it."""
    what = f"sample {sample.provenance}"
    return _eigvalsh(_lapack.hermitian_eigvalsh, what, sample.take())


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
    2(n-1), ..., 2 (the squared off-diagonal).  The eigenvalues come from
    dsterf on the two vectors (_lapack.tridiagonal_eigvalsh): no N x N
    matrix is formed.
    """
    if n < 2:
        raise ParameterError(f"GUE dimension must be >= 2, got {n}")
    beta = 2.0
    rng = substream_rng(seed, trial)
    scale = 1.0 / np.sqrt(beta * n)
    diag = rng.standard_normal(n) * (np.sqrt(2.0) * scale)
    off = np.sqrt(rng.chisquare(beta * np.arange(n - 1, 0, -1))) * scale
    what = f"GUE tridiagonal model (n={n}, seed={seed}, trial={trial})"
    return _eigvalsh(_lapack.tridiagonal_eigvalsh, what, diag, off)


def eigensolve(sample: HermitianSample) -> SpectralData:
    """Dense Hermitian eigendecomposition, eigenvalues ascending.  Takes
    the sample's matrix, which eigh copies; the taken matrix is freed when
    eigensolve returns."""
    what = f"sample {sample.provenance}"
    h = sample.take()
    _finite_entries(h, what)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed for {what}") from exc
    return SpectralData(_finite(w, what), v)


def _eigvalsh(solve, what, *arrays):
    for a in arrays:
        _finite_entries(a, what)
    try:
        w = solve(*arrays)
    except (np.linalg.LinAlgError, NumericError) as exc:
        raise NumericError(f"eigenvalues failed for {what}: {exc}") from exc
    return _finite(w, what)


def _finite_entries(a, what):
    """Raise unless every entry of a, a matrix checked in row blocks or a
    vector, is finite: for some non-finite inputs LAPACK returns finite
    eigenvalues (zheevd at N = 2 with a NaN on the diagonal)."""
    for r0, r1 in row_blocks(a.shape[0]) if a.ndim == 2 else [(0, a.size)]:
        if not np.all(np.isfinite(a[r0:r1])):
            raise NumericError(f"non-finite matrix entries in {what}")


def _finite(w, what):
    # some LAPACK drivers return NaN, rather than failing, for a NaN input
    if not np.all(np.isfinite(w)):
        raise NumericError(f"non-finite eigenvalues for {what}")
    return w
