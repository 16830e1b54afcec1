"""Gaussian band-matrix sampling and the exact matrix Ornstein-Uhlenbeck
transition, all drawn by one stacked sampler, _draw.

Every sample is a pure function of (master seed, trial index): the trial's
substream key seeds a fresh generator, which makes one call of normals in a
fixed canonical order (off-diagonal real parts over lexicographic
upper-triangle pairs, then the imaginary parts, then the diagonal).
Samples are therefore bit-reproducible regardless of scheduling.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .lattice import TorusLattice
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


def _draw(seed, t0, t1, n, offdiag_var, diag_var):
    """The (t1 - t0, n, n) stack of the Hermitian draws of trials [t0, t1):
    one call of n(n-1) + n normals per trial, in the canonical order, scaled
    by offdiag_var (a scalar, or the n x n matrix read on its strict upper
    triangle) and the scalar diag_var."""
    m = n * (n - 1) // 2
    out = np.empty((t1 - t0, n, n), dtype=complex)  # the three writes cover every entry
    idx = np.arange(n)
    upper = idx[:, None] < idx  # its row-major order is the pair order
    sig = offdiag_var[upper] if np.ndim(offdiag_var) else np.array(offdiag_var, dtype=float)
    np.sqrt(np.divide(sig, 2.0, out=sig), out=sig)  # in place: one pair-sized buffer
    del offdiag_var  # frees a caller's temporary n x n matrix before the work buffers
    sig_diag = np.sqrt(diag_var)
    raw = np.empty(2 * m + n)  # reused across trials
    re, im, dg = raw[:m], raw[m : 2 * m], raw[2 * m :]
    v = np.empty(m, dtype=complex)
    for t, h in zip(range(t0, t1), out):
        substream_rng(seed, t).standard_normal(out=raw)
        np.multiply(re, sig, out=v.real)
        np.multiply(im, sig, out=v.imag)
        h[upper] = v
        # the k-th True of upper in h.T's row-major order is entry (y, x) of pair k
        h.T[upper] = np.conjugate(v, out=v)
        h[idx, idx] = dg * sig_diag
    return out


def sample_band_batch(prof: VarianceProfile, seed: int, t0: int, t1: int) -> np.ndarray:
    """The (t1 - t0, N, N) stack of sample_band(prof, seed, t).matrix over
    trials t in [t0, t1); the pair variances are gathered once per call."""
    lat = prof.lattice
    return _draw(seed, t0, t1, lat.N, lat.kernel_matrix(prof.kernel_fft), prof.kernel_flat[0])


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
    xi = _draw(seed, trial, trial + 1, lat.N, var, var)[0]
    xi += np.exp(-t / 2.0) * h0.matrix
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
