"""Banded, translation-invariant variance profiles and their Fourier symbols.

A profile is the doubly stochastic circulant matrix S given through a
one-point kernel f on the torus, synthesized from a smooth shape function
psi evaluated at the torus frequencies 2*pi*W*k/L:

    f(x) = Z^{-1} N^{-1} sum_k psi(2 pi W k / L) exp(2 pi i k.x / L),

with Z fixed so that sum_x f(x) = 1.  The symbol (eigenvalues of S over
Fourier modes) is the forward DFT of the kernel.  Kernels and symbols are
stored in FFT layout (axis index = displacement/mode mod L).
"""

import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .errors import ParameterError, ProfilePositivityError
from .lattice import TorusLattice

__all__ = [
    "ShapeFunction",
    "VarianceProfile",
    "get_shape",
    "build_profile",
    "mean_field_profile",
    "band_truncation_mass",
]

_IMAG_TOL = 1e-12
_NEG_TOL = -1e-10


@dataclass(frozen=True)
class ShapeFunction:
    """Smooth symmetric shape psi with psi(0) = 1 and |psi| <= 1.

    ``eval`` maps an array of frequency vectors, shape (..., d), to real
    values of shape (...).
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]


def _gaussian(p: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.sum(np.square(p), axis=-1))


@cache
def _bump_axis_table(samples: int = 4001):
    # Self-convolution of chi(t) = exp(-1/(1-t^2)) on (-1, 1), normalized to
    # peak 1, on s >= 0 (it is even).  Its Fourier transform is chi_hat^2 >= 0,
    # so kernels built from (tensor products of) this shape are nonnegative
    # after synthesis.  Computed on the first compact-bump kernel, not on import.
    t = np.linspace(-1.0, 1.0, samples)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        chi = np.where(np.abs(t) < 1.0, np.exp(-1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
    h = t[1] - t[0]
    conv = np.convolve(chi, chi) * h
    s = np.linspace(-2.0, 2.0, conv.size)
    keep = s >= 0
    return s[keep], (conv / conv.max())[keep]


_BUMP_SCALE = 2.0  # support per axis: |p| < 2 * _BUMP_SCALE


def _bump(p: np.ndarray) -> np.ndarray:
    scaled = np.abs(np.asarray(p, dtype=float)) / _BUMP_SCALE
    axis_vals = np.interp(scaled, *_bump_axis_table(), right=0.0)
    return np.prod(axis_vals, axis=-1)


_SHAPES = {
    "gaussian": ShapeFunction("gaussian", _gaussian),
    "compact-bump": ShapeFunction("compact-bump", _bump),
}


def get_shape(name: str) -> ShapeFunction:
    try:
        return _SHAPES[name]
    except KeyError:
        raise ParameterError(
            f"unknown shape function {name!r}; available: {sorted(_SHAPES)}"
        ) from None


@dataclass(frozen=True)
class VarianceProfile:
    """Doubly stochastic banded variance matrix S as a circulant kernel."""

    lattice: TorusLattice
    W: float
    psi_name: str
    kernel_fft: np.ndarray = field(repr=False)  # real, d-dim, sums to 1
    symbol_fft: np.ndarray = field(repr=False)  # real eigenvalues, symbol[0]=1
    Z: float

    @property
    def profile_id(self) -> str:
        lat = self.lattice
        return f"{self.psi_name}:d={lat.d}:L={lat.L}:W={self.W:g}"

    @cached_property
    def kernel_flat(self) -> np.ndarray:
        return np.ascontiguousarray(self.kernel_fft).ravel()

    def s_pairs(self, i, j) -> np.ndarray:
        """Variance s_xy for site index pairs, vectorized."""
        return self.kernel_flat[self.lattice.diff_flat(i, j)]

    def s_row(self, i) -> np.ndarray:
        """Row i of S as a length-N vector."""
        return self.s_pairs(i, np.arange(self.lattice.N))

    def dense_matrix(self) -> np.ndarray:
        """Full N x N variance matrix; intended for small N."""
        return self.lattice.kernel_matrix(self.kernel_fft)


def build_profile(psi: ShapeFunction, W: float, lat: TorusLattice) -> VarianceProfile:
    """Synthesize the variance kernel for shape psi at band width W.

    Raises ProfilePositivityError if the synthesized kernel has an entry
    below -1e-10 (the shape is inadmissible at this (W, L)); round-off
    negatives above that tolerance are clamped to zero before the final
    normalization.
    """
    if W < 1:
        raise ParameterError(f"band width W must be >= 1, got {W}")
    if lat.L <= 2 * W:
        warnings.warn(
            f"L={lat.L} <= 2W={2 * W}: band wraps around the torus", stacklevel=2
        )
    modes = np.fft.fftfreq(lat.L) * lat.L  # integer representatives, FFT order
    grids = np.meshgrid(*([modes] * lat.d), indexing="ij")
    pvec = np.stack(grids, axis=-1) * (2.0 * np.pi * W / lat.L)
    vals = np.asarray(psi.eval(pvec), dtype=float)

    kern_c = np.fft.ifftn(vals)
    max_imag = float(np.max(np.abs(kern_c.imag)))
    if max_imag > _IMAG_TOL:
        raise ParameterError(
            f"kernel synthesis produced imaginary parts up to {max_imag:.3e}; "
            "shape function is not symmetric"
        )
    kern = kern_c.real.copy()

    min_val = float(kern.min())
    if min_val < _NEG_TOL:
        raise ProfilePositivityError(
            f"kernel entry {min_val:.3e} below tolerance {_NEG_TOL:.0e}: "
            f"shape {psi.name!r} is inadmissible at W={W}, L={lat.L}"
        )
    np.maximum(kern, 0.0, out=kern)

    Z = float(kern.sum())
    if Z <= 0:
        raise ParameterError(f"normalization constant Z={Z} is not positive")
    kern /= Z

    symbol = np.fft.fftn(kern).real
    return VarianceProfile(lat, float(W), psi.name, kern, symbol, Z)


def mean_field_profile(lat: TorusLattice) -> VarianceProfile:
    """Uniform profile S = J/N (the GUE comparison baseline)."""
    shape = (lat.L,) * lat.d
    kern = np.full(shape, 1.0 / lat.N)
    symbol = np.zeros(shape)
    symbol.flat[0] = 1.0
    return VarianceProfile(lat, float(lat.L), "mean-field", kern, symbol, 1.0)


def band_truncation_mass(prof: VarianceProfile, tau: float) -> float:
    """Total kernel mass at distances >= W^(1+tau) (worst row = any row)."""
    cutoff = prof.W ** (1.0 + tau)
    mask = prof.lattice.distance_fft >= cutoff
    return float(prof.kernel_fft[mask].sum())
