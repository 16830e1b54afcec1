"""Gaussian band-matrix sampling and the exact matrix Ornstein-Uhlenbeck
transition, all drawn by one stacked sampler, _draw.

Every sample is a pure function of (master seed, trial index): the trial's
substream key seeds a fresh generator, whose one stream of normals comes in
a fixed canonical order (off-diagonal real parts over lexicographic
upper-triangle pairs, then the imaginary parts, then the diagonal).  It is
drawn in row blocks of the matrix, and consecutive draws continue the
stream, so the block size does not change a sample.  Samples are therefore
bit-reproducible regardless of scheduling.

A sample hands its matrix over once (HermitianSample.take): every dense
step that consumes a draw (spectral.resolvent, eigenvalues, eigensolve and
ou_evolve) works in the sample's own buffer, so no caller holds H beside
what is computed from it.  A caller that needs H twice draws it again.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .lattice import TorusLattice, row_blocks
from .profile import VarianceProfile, mean_field_profile
from .seeding import substream_rng

__all__ = [
    "Provenance",
    "HermitianSample",
    "sample_band",
    "sample_band_batch",
    "ou_evolve",
    "sample_gue",
]


@dataclass(frozen=True)
class Provenance:
    seed: int
    trial: int
    flow_time: float
    profile_id: str


class HermitianSample:
    """One realization H with enough provenance to regenerate it.

    The sample owns its matrix, a C-order complex (N, N) array, until a
    dense step takes it (take()); that step may overwrite it.  After that,
    reading .matrix or taking it again raises ContractError.
    """

    __slots__ = ("lattice", "provenance", "_matrix")

    def __init__(self, lattice: TorusLattice, matrix, provenance: Provenance):
        self.lattice = lattice
        self.provenance = provenance
        self._matrix = np.ascontiguousarray(matrix, dtype=complex)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            raise ContractError(
                f"sample {self.provenance} was taken by a dense step; draw it again to reuse it"
            )
        return self._matrix

    def take(self) -> np.ndarray:
        """The matrix, handed over: the sample holds it no longer."""
        h = self.matrix
        self._matrix = None
        return h


@functools.lru_cache(maxsize=16)
def _layout(n):
    """How _draw lays normals over an n x n matrix, shared by every draw of
    that size (read-only): offs, where row x of the strict upper triangle
    holds pairs [offs[x], offs[x + 1]) and offs[n] = n(n-1)/2; and per
    lattice.row_blocks(n) block, (r0, r1, upper, low) with upper the mask
    of the strict upper triangle in rows [r0, r1), a view of one staircase
    pattern (2n bytes per block row), and low the strict lower mask of the
    block's diagonal tile."""
    x = np.arange(n + 1)
    offs = x * n - x * (x + 1) // 2
    blocks = row_blocks(n)
    rows = blocks[0][1]
    stair = np.arange(2 * n) > n + np.arange(rows)[:, None]  # stair[i, n - r0 + y]: y > r0 + i
    tile_lower = np.tri(rows, k=-1, dtype=bool)
    for a in (offs, stair, tile_lower):
        a.setflags(write=False)
    return offs, tuple(
        (r0, r1, stair[: r1 - r0, n - r0 : 2 * n - r0], tile_lower[: r1 - r0, : r1 - r0])
        for r0, r1 in blocks
    )


def _draw(seed, t0, out, scale, diag_var):
    """Add the Hermitian draws of trials [t0, t0 + B) into the (B, n, n)
    C-order complex stack out, which must be Hermitian itself.

    Each trial's n(n-1) + n normals come in the canonical order, drawn in
    row blocks (lattice.row_blocks) into one reused buffer: the real parts
    block by block over the strict upper triangle, then the imaginary
    parts, then the diagonal.  The B trials' generators stay alive, so
    each block's scales serve the whole stack: scale is a scalar, or the
    variance profile, whose sqrt(s_xy / 2) a block gathers from the
    N-vector sqrt(k / 2), tiled once per call (lattice.kernel_rows; no
    N x N variance matrix, no vector over all pairs).  The normals are scaled by it and by sqrt(diag_var) on the
    diagonal, and added to the upper triangle and the diagonal; the lower
    triangle is then the adjoint of the upper.  Beside the stack, only
    block-sized buffers are live.
    """
    n = out.shape[-1]
    offs, layout = _layout(n)
    buf = np.empty(max([n] + [offs[r1] - offs[r0] for r0, r1, _, _ in layout]))
    profiled = isinstance(scale, VarianceProfile)
    if profiled:
        gather = scale.lattice.kernel_rows(np.sqrt(scale.kernel_fft / 2.0))
    rngs = [substream_rng(seed, t) for t in range(t0, t0 + out.shape[0])]
    for part in (out.real, out.imag):
        for r0, r1, upper, _ in layout:
            v = buf[: offs[r1] - offs[r0]]
            s = gather(np.arange(r0, r1))[upper] if profiled else scale
            for rng, h in zip(rngs, part):
                rng.standard_normal(out=v)  # continues the trial's one stream
                v *= s
                rows = h[r0:r1]
                v += rows[upper]
                rows[upper] = v
    diagonals = out.reshape(out.shape[0], n * n, copy=False)[:, :: n + 1].real
    sig_diag = np.sqrt(diag_var)
    for rng, h, diagonal in zip(rngs, out, diagonals):
        for r0, r1, _, low in layout:
            # rows [r0, r1) below the diagonal: the adjoint of the upper
            # entries in columns [r0, r1), then of the tile on the diagonal
            if r0:
                np.conjugate(h[:r0, r0:r1].T, out=h[r0:r1, :r0])
            tile = h[r0:r1, r0:r1]
            tile[low] = np.conjugate(tile.T[low])
        rng.standard_normal(out=buf[:n])
        buf[:n] *= sig_diag
        diagonal += buf[:n]
    return out


def sample_band_batch(prof: VarianceProfile, seed: int, t0: int, t1: int) -> np.ndarray:
    """The (t1 - t0, N, N) stack of sample_band(prof, seed, t).matrix over
    trials t in [t0, t1); each row block's pair scales are gathered once
    per part for the whole stack."""
    n = prof.lattice.N
    out = np.zeros((t1 - t0, n, n), dtype=complex)  # the diagonal stays real
    return _draw(seed, t0, out, prof, prof.kernel_flat[0])


def sample_band(prof: VarianceProfile, seed: int, trial: int) -> HermitianSample:
    """Hermitian Gaussian sample with entry variances E|h_xy|^2 = s_xy.

    Off-diagonal entries are complex with independent real/imaginary parts
    of variance s_xy/2; the diagonal is real with variance s_xx.
    """
    h = sample_band_batch(prof, seed, trial, trial + 1)[0]
    return HermitianSample(prof.lattice, h, Provenance(seed, trial, 0.0, prof.profile_id))


def ou_evolve(h0: HermitianSample, t: float, seed: int, trial: int) -> HermitianSample:
    """One-shot transition of dH = -H/2 dt + dB/sqrt(N) over time t.

    H_t = exp(-t/2) H_0 + Xi_t with Xi_t an independent Hermitian Gaussian
    of entry variance (1 - exp(-t))/N, so E|h_xy(t)|^2 equals
    exp(-t) s_xy + (1 - exp(-t))/N.  Exact; no time-stepping error.  Takes
    h0's matrix and returns H_t in that buffer: exp(-t/2) H_0 with Xi_t's
    normals added by _draw.
    """
    if t < 0:
        raise ParameterError(f"flow time must be nonnegative, got {t}")
    lat = h0.lattice
    p = h0.provenance
    prov = Provenance(p.seed, p.trial, p.flow_time + t, p.profile_id)
    var = (1.0 - np.exp(-t)) / lat.N
    h = h0.take()
    h *= np.exp(-t / 2.0)
    _draw(seed, trial, h[None], np.sqrt(var / 2.0), var)
    return HermitianSample(lat, h, prov)


def sample_gue(n: int, seed: int, trial: int) -> HermitianSample:
    """GUE sample normalized so the spectrum converges to [-2, 2]: the
    sample_band draw of the mean-field profile S = J/N.  The dense oracle
    for spectral.gue_eigenvalues, which draws the same eigenvalue law."""
    if n < 2:
        raise ParameterError(f"GUE dimension must be >= 2, got {n}")
    return sample_band(mean_field_profile(TorusLattice(1, n)), seed, trial)
