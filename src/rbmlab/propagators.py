"""Deterministic lattice propagators built spectrally from the circulant
variance profile: the centered diffusive kernel, its uniform-mode
completion, and the two complex-multiplier kernels.

All propagators are one-point kernels on the torus (O(N) memory); full
matrix entries materialize on demand through displacement lookup.  The FFT
synthesis is the production path; dense matrix inversion exists only as a
test oracle gated to N <= 512.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, HalfPlaneError, ParameterError
from .lattice import TorusLattice, torus_distance
from .profile import VarianceProfile
from .spectral import semicircle_m

__all__ = [
    "PropagatorSet",
    "theta_circ",
    "s_pm",
    "b_profile",
    "b_kernel",
    "dense_theta_circ",
    "dense_theta",
    "dense_s_plus",
]

_DENSE_CAP = 512


def theta_circ(prof: VarianceProfile, z: complex) -> np.ndarray:
    """Diffusive kernel: |m|^2 S / (1 - |m|^2 S) with the uniform Fourier
    mode removed.  Real d-dim array in FFT layout; sums to zero."""
    z = complex(z)
    if z.imag <= 0:
        raise HalfPlaneError("propagators require Im z > 0")
    mm = abs(semicircle_m(z)) ** 2
    lam = prof.symbol_fft
    mult = mm * lam / (1.0 - mm * lam)
    mult = mult.copy()
    mult.flat[0] = 0.0
    return np.fft.ifftn(mult).real


def s_pm(prof: VarianceProfile, z: complex):
    """Kernels of m^2 S/(1 - m^2 S) and its complex conjugate."""
    z = complex(z)
    if z.imag <= 0:
        raise HalfPlaneError("propagators require Im z > 0")
    m2 = semicircle_m(z) ** 2
    lam = prof.symbol_fft
    mult = m2 * lam / (1.0 - m2 * lam)
    plus = np.fft.ifftn(mult)
    return plus, plus.conj()


@dataclass(frozen=True)
class PropagatorSet:
    """All propagator kernels of one (profile, z) pair, plus a theta_circ lookup."""

    profile: VarianceProfile
    z: complex
    theta_circ_fft: np.ndarray = field(repr=False)
    theta_fft: np.ndarray = field(repr=False)
    s_plus_fft: np.ndarray = field(repr=False)
    s_minus_fft: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, prof: VarianceProfile, z: complex) -> "PropagatorSet":
        z = complex(z)
        tc = theta_circ(prof, z)
        tf = tc + semicircle_m(z).imag / (prof.lattice.N * z.imag)
        sp, sm = s_pm(prof, z)
        return cls(prof, z, tc, tf, sp, sm)

    @property
    def lattice(self) -> TorusLattice:
        return self.profile.lattice

    @cached_property
    def _tc_flat(self):
        return self.theta_circ_fft.ravel()

    def theta_circ_at(self, i, j):
        return self._tc_flat[self.lattice.diff_flat(i, j)]


def b_profile(lat: TorusLattice, W: float, x, y) -> float:
    """Diffusive decay profile W^{-2} (||x-y|| + W)^{2-d} at coordinates x, y."""
    if W < 1:
        raise ParameterError(f"band width W must be >= 1, got {W}")
    dist = torus_distance(x, y, lat)
    return float(W ** (-2.0) * (dist + W) ** (2.0 - lat.d))


def b_kernel(lat: TorusLattice, W: float) -> np.ndarray:
    """Displacement kernel of b_profile; d-dim array in FFT layout."""
    if W < 1:
        raise ParameterError(f"band width W must be >= 1, got {W}")
    return W ** (-2.0) * (lat.distance_fft + W) ** (2.0 - lat.d)


def _dense_s(prof: VarianceProfile) -> np.ndarray:
    n = prof.lattice.N
    if n > _DENSE_CAP:
        raise CapacityError(f"dense propagator oracle gated to N <= {_DENSE_CAP}, got {n}")
    return prof.dense_matrix()


def dense_theta_circ(prof: VarianceProfile, z: complex) -> np.ndarray:
    """Test oracle: |m|^2 S0 (I - |m|^2 S0)^{-1} with S0 = S - J/N, dense."""
    S = _dense_s(prof)
    n = S.shape[0]
    mm = abs(semicircle_m(complex(z))) ** 2
    s0 = S - 1.0 / n
    return mm * np.linalg.solve(np.eye(n) - mm * s0, s0)


def dense_theta(prof: VarianceProfile, z: complex) -> np.ndarray:
    """Test oracle: |m|^2 S (I - |m|^2 S)^{-1}, dense."""
    S = _dense_s(prof)
    n = S.shape[0]
    mm = abs(semicircle_m(complex(z))) ** 2
    return mm * np.linalg.solve(np.eye(n) - mm * S, S)


def dense_s_plus(prof: VarianceProfile, z: complex) -> np.ndarray:
    """Test oracle: m^2 S (I - m^2 S)^{-1}, dense."""
    S = _dense_s(prof)
    n = S.shape[0]
    m2 = semicircle_m(complex(z)) ** 2
    return m2 * np.linalg.solve(np.eye(n, dtype=complex) - m2 * S, S.astype(complex))
