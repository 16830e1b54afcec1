"""Gaussian band-matrix sampling and the exact matrix Ornstein-Uhlenbeck
transition, all drawn by one stacked sampler, _draw.

Every sample is a pure function of (master seed, trial index): the trial's
substream key seeds a fresh generator, whose one stream of normals comes in
a fixed canonical order (off-diagonal real parts over lexicographic
upper-triangle pairs, then the imaginary parts, then the diagonal).  It is
drawn in row blocks of the matrix, and consecutive draws continue the
stream, so the block size does not change a sample.  Samples are therefore
bit-reproducible regardless of scheduling.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
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
    "dump_sample",
    "load_sample",
]

_MAGIC = b"RBM1"
_HEADER = struct.Struct("<4sIIdd4x")  # magic, d, L, W, flow time, 4 pad bytes


@dataclass(frozen=True)
class Provenance:
    seed: int
    trial: int
    flow_time: float
    profile_id: str


@dataclass(frozen=True)
class HermitianSample:
    """One realization H with enough provenance to regenerate it."""

    lattice: TorusLattice
    matrix: np.ndarray
    provenance: Provenance


@functools.lru_cache(maxsize=16)
def _layout(n):
    """How _draw lays normals over an n x n matrix, shared by every draw of
    that size (read-only): offs, where row x of the strict upper triangle
    holds pairs [offs[x], offs[x + 1]) and offs[n] = n(n-1)/2; per
    lattice.row_blocks(n) block, (r0, r1, upper) with upper the mask of the
    strict upper triangle in rows [r0, r1), a view of one staircase
    pattern (2n bytes per block row); and the strict lower mask of a
    diagonal tile."""
    x = np.arange(n + 1)
    offs = x * n - x * (x + 1) // 2
    blocks = row_blocks(n)
    rows = blocks[0][1]
    stair = np.arange(2 * n) > n + np.arange(rows)[:, None]  # stair[i, n - r0 + y]: y > r0 + i
    tile_lower = np.tri(rows, k=-1, dtype=bool)
    for a in (offs, stair, tile_lower):
        a.setflags(write=False)
    return offs, tuple((r0, r1, stair[: r1 - r0, n - r0 : 2 * n - r0]) for r0, r1 in blocks), tile_lower


def _pair_sigma(prof):
    """sqrt(s_xy / 2) over the strict upper triangle in pair order, the
    standard deviation of Re h_xy and Im h_xy; gathered from row blocks of
    the kernel, so no N x N variance matrix is formed."""
    lat = prof.lattice
    n = lat.N
    offs, blocks, _ = _layout(n)
    sig = np.empty(offs[n])
    for r0, r1, upper in blocks:
        sig[offs[r0] : offs[r1]] = lat.kernel_matrix(prof.kernel_fft, np.arange(r0, r1))[upper]
    return np.sqrt(np.divide(sig, 2.0, out=sig), out=sig)


def _draw(seed, t0, t1, n, sigma, diag_var):
    """The (t1 - t0, n, n) stack of the Hermitian draws of trials [t0, t1).

    Each trial's n(n-1) + n normals come in the canonical order, drawn in
    row blocks (lattice.row_blocks) into one reused buffer: the real parts
    block by block over the strict upper triangle, then the imaginary
    parts, then the diagonal.  They are scaled by sigma (a scalar, or
    _pair_sigma's vector) and by sqrt(diag_var) on the diagonal.  Beside
    the stack, only block-sized buffers are live.
    """
    offs, layout, tile_lower = _layout(n)
    buf = np.empty(max([n] + [offs[r1] - offs[r0] for r0, r1, _ in layout]))
    # per row block: its rows and upper mask, the share of buf its normals
    # fill, their scale, and the strict lower mask of its diagonal tile
    blocks = [
        (r0, r1, upper, buf[: offs[r1] - offs[r0]],
         sigma[offs[r0] : offs[r1]] if np.ndim(sigma) else sigma,
         tile_lower[: r1 - r0, : r1 - r0])
        for r0, r1, upper in layout
    ]
    out = np.zeros((t1 - t0, n, n), dtype=complex)  # the diagonal stays real
    diagonals = out.reshape(t1 - t0, n * n)[:, :: n + 1].real
    sig_diag = np.sqrt(diag_var)
    for t, h, diagonal in zip(range(t0, t1), out, diagonals):
        rng = substream_rng(seed, t)
        for part in (h.real, h.imag):
            for r0, r1, upper, v, scale, _ in blocks:
                rng.standard_normal(out=v)  # continues the trial's one stream
                v *= scale
                part[r0:r1][upper] = v
        for r0, r1, _, _, _, low in blocks:
            # rows [r0, r1) below the diagonal: the adjoint of the upper
            # entries in columns [r0, r1), then of the tile on the diagonal
            if r0:
                np.conjugate(h[:r0, r0:r1].T, out=h[r0:r1, :r0])
            tile = h[r0:r1, r0:r1]
            tile[low] = np.conjugate(tile.T[low])
        rng.standard_normal(out=buf[:n])
        np.multiply(buf[:n], sig_diag, out=diagonal)
    return out


def sample_band_batch(prof: VarianceProfile, seed: int, t0: int, t1: int) -> np.ndarray:
    """The (t1 - t0, N, N) stack of sample_band(prof, seed, t).matrix over
    trials t in [t0, t1); the pair variances are gathered once per call."""
    return _draw(seed, t0, t1, prof.lattice.N, _pair_sigma(prof), prof.kernel_flat[0])


def sample_band(prof: VarianceProfile, seed: int, trial: int) -> HermitianSample:
    """Hermitian Gaussian sample with entry variances E|h_xy|^2 = s_xy.

    Off-diagonal entries are complex with independent real/imaginary parts
    of variance s_xy/2; the diagonal is real with variance s_xx.
    """
    h = sample_band_batch(prof, seed, trial, trial + 1)[0]
    return HermitianSample(prof.lattice, h, Provenance(seed, trial, 0.0, prof.profile_id))


def ou_evolve(
    h0: HermitianSample, t: float, prof: VarianceProfile, seed: int, trial: int
) -> HermitianSample:
    """One-shot transition of dH = -H/2 dt + dB/sqrt(N) over time t.

    H_t = exp(-t/2) H_0 + Xi_t with Xi_t an independent Hermitian Gaussian
    of entry variance (1 - exp(-t))/N, so E|h_xy(t)|^2 equals
    exp(-t) s_xy + (1 - exp(-t))/N.  Exact; no time-stepping error.
    """
    if t < 0:
        raise ParameterError(f"flow time must be nonnegative, got {t}")
    lat = h0.lattice
    p = h0.provenance
    prov = Provenance(p.seed, p.trial, p.flow_time + t, p.profile_id)
    var = (1.0 - np.exp(-t)) / lat.N
    xi = _draw(seed, trial, trial + 1, lat.N, np.sqrt(var / 2.0), var)[0]
    decay = np.exp(-t / 2.0)
    for r0, r1 in row_blocks(lat.N):  # no N x N temporary beside H_0 and Xi_t
        xi[r0:r1] += decay * h0.matrix[r0:r1]
    return HermitianSample(lat, xi, prov)


def sample_gue(n: int, seed: int, trial: int) -> HermitianSample:
    """GUE sample normalized so the spectrum converges to [-2, 2]: the
    sample_band draw of the mean-field profile S = J/N.  The dense oracle
    for spectral.gue_eigenvalues, which draws the same eigenvalue law."""
    if n < 2:
        raise ParameterError(f"GUE dimension must be >= 2, got {n}")
    return sample_band(mean_field_profile(TorusLattice(1, n)), seed, trial)


def dump_sample(sample: HermitianSample, path, W: float) -> None:
    """Binary dump: 32-byte header (magic 'RBM1', d, L, W, flow time),
    then the matrix as little-endian complex64, row-major."""
    lat = sample.lattice
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, lat.d, lat.L, float(W), sample.provenance.flow_time))
        fh.write(np.ascontiguousarray(sample.matrix.astype("<c8")).tobytes())


def load_sample(path):
    """Read a dump_sample file; returns (matrix, header dict)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
        raise ParameterError(f"{path} does not start with a {_HEADER.size}-byte {_MAGIC!r} header")
    _, d, L, W, t = _HEADER.unpack_from(raw)
    # the first test bounds L**d before it is formed
    if d * np.log2(max(L, 1)) > 64 or len(raw) != _HEADER.size + 8 * (L**d) ** 2:
        raise ParameterError(f"{path}: payload is not the 8 N^2 bytes of N = {L}^{d}")
    data = np.frombuffer(raw, dtype="<c8", offset=_HEADER.size).reshape(L**d, L**d)
    return data, {"d": d, "L": L, "W": W, "flow_time": t}
