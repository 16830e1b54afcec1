"""Gaussian band-matrix sampling and the exact matrix Ornstein-Uhlenbeck
transition.

Every sample is a pure function of (master seed, trial index): the trial's
substream key seeds a fresh generator, and draws happen in a fixed
canonical order (off-diagonal real parts over lexicographic upper-triangle
pairs, then the imaginary parts, then the diagonal).  Samples are therefore
bit-reproducible regardless of scheduling.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .lattice import TorusLattice
from .profile import VarianceProfile, mean_field_profile
from .seeding import substream_rng

__all__ = [
    "Provenance",
    "HermitianSample",
    "sample_band",
    "ou_evolve",
    "sample_gue",
    "dump_sample",
    "load_sample",
]

_MAGIC = b"RBM1"
_HEADER = struct.Struct("<4sIIdd")  # magic, d, L, W, flow time (28 bytes + 4 pad)


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


def _strict_upper(n):
    """Boolean mask of the pairs x < y; its row-major order is the
    lexicographic pair order of the canonical draws."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


def _hermitian_from_rng(rng, n, upper, offdiag_var, diag_var):
    """Draws in canonical order over the strict-upper mask of an n×n matrix;
    offdiag_var (per pair, in mask order) and diag_var are arrays or scalars."""
    # v = (re + 1j*im) * sigma, built in place to keep the peak down
    m = n * (n - 1) // 2
    re = rng.standard_normal(m)
    v = 1j * rng.standard_normal(m)
    v += re
    del re
    diag = rng.standard_normal(n)
    v *= np.sqrt(np.asarray(offdiag_var, dtype=float) / 2.0)
    h = np.empty((n, n), dtype=complex)  # the three writes cover every entry
    h[upper] = v
    # the k-th True of upper in h.T's row-major order is entry (y, x) of pair k
    h.T[upper] = np.conjugate(v, out=v)
    h[np.diag_indices(n)] = diag * np.sqrt(diag_var)
    return h


def sample_band(prof: VarianceProfile, seed: int, trial: int) -> HermitianSample:
    """Hermitian Gaussian sample with entry variances E|h_xy|^2 = s_xy.

    Off-diagonal entries are complex with independent real/imaginary parts
    of variance s_xy/2; the diagonal is real with variance s_xx.
    """
    lat = prof.lattice
    n = lat.N
    rng = substream_rng(seed, trial)
    upper = _strict_upper(n)
    s_upper = lat.kernel_matrix(prof.kernel_fft)[upper]
    h = _hermitian_from_rng(rng, n, upper, s_upper, prof.kernel_flat[0])
    return HermitianSample(lat, h, Provenance(seed, trial, 0.0, prof.profile_id))


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
    prov = replace(h0.provenance, flow_time=h0.provenance.flow_time + t)
    if t == 0:
        return HermitianSample(lat, h0.matrix.copy(), prov)
    n = lat.N
    var = (1.0 - np.exp(-t)) / n
    rng = substream_rng(seed, trial)
    xi = _hermitian_from_rng(rng, n, _strict_upper(n), var, var)
    xi += np.exp(-t / 2.0) * h0.matrix
    return HermitianSample(lat, xi, prov)


def sample_gue(n: int, seed: int, trial: int) -> HermitianSample:
    """GUE sample normalized so the spectrum converges to [-2, 2]: the
    sample_band draw of the mean-field profile S = J/N.  The dense oracle
    for spectral.gue_eigenvalues, which draws the same eigenvalue law."""
    if n < 2:
        raise ParameterError(f"GUE dimension must be >= 2, got {n}")
    prof = mean_field_profile(TorusLattice(1, n))
    rng = substream_rng(seed, trial)
    var = prof.kernel_flat[0]  # every entry of S is 1/N
    h = _hermitian_from_rng(rng, n, _strict_upper(n), var, var)
    return HermitianSample(prof.lattice, h, Provenance(seed, trial, 0.0, prof.profile_id))


def dump_sample(sample: HermitianSample, path, W: float) -> None:
    """Binary dump: 32-byte header (magic 'RBM1', d, L, W, flow time),
    then the matrix as little-endian complex64, row-major."""
    lat = sample.lattice
    header = _HEADER.pack(_MAGIC, lat.d, lat.L, float(W), sample.provenance.flow_time)
    with open(path, "wb") as fh:
        fh.write(header + b"\x00" * (32 - _HEADER.size))
        fh.write(np.ascontiguousarray(sample.matrix.astype("<c8")).tobytes())


def load_sample(path):
    """Read a dump_sample file; returns (matrix, header dict)."""
    with open(path, "rb") as fh:
        raw = fh.read(32)
        magic, d, L, W, t = _HEADER.unpack(raw[: _HEADER.size])
        if magic != _MAGIC:
            raise ParameterError(f"bad magic {magic!r} in {path}")
        n = L**d
        data = np.frombuffer(fh.read(), dtype="<c8").reshape(n, n)
    return data, {"d": d, "L": L, "W": W, "flow_time": t}
