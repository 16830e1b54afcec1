"""Discrete torus (Z/LZ)^d with the periodic representative and distance
conventions used by every other module.

Coordinates are signed integers in the canonical box (-L/2, L/2]^d.  The
linear (site) index is row-major over shifted coordinates, i.e. axis value
``coord + (L-1)//2`` runs over ``0..L-1`` with the last axis fastest.  All
kernels indexed "by displacement" are stored in FFT layout, where axis
index ``i`` stands for the displacement ``i mod L``; :meth:`TorusLattice.
diff_flat` converts a pair of site indices to that layout.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidCoordinateError, ParameterError

__all__ = [
    "TorusLattice",
    "representative",
    "torus_distance",
    "row_blocks",
]

# entries per block of a chunked scan: a row block of an N x N matrix, or a
# chunk of the terms graphs.evaluate sums
BLOCK_ENTRIES = 1 << 16


def row_blocks(n: int) -> list:
    """The row ranges [r0, r1) that cover an n x n matrix in order, each of
    at most BLOCK_ENTRIES entries (and at least one row), so a row-blocked
    scan's temporaries stay near 1 MB of complex entries at any n."""
    rows = max(1, BLOCK_ENTRIES // n)
    return [(r0, min(r0 + rows, n)) for r0 in range(0, n, rows)]


@dataclass(frozen=True)
class TorusLattice:
    """The index set (Z/LZ)^d with N = L^d sites."""

    d: int
    L: int

    def __post_init__(self):
        if self.d < 1 or self.L < 1:
            raise ParameterError(f"need d >= 1 and L >= 1, got d={self.d}, L={self.L}")

    @property
    def N(self) -> int:
        return self.L**self.d

    @property
    def shift(self) -> int:
        # canonical coordinate c maps to axis index c + shift
        return (self.L - 1) // 2

    @cached_property
    def coords(self) -> np.ndarray:
        """(N, d) array: coordinates of every site in linear-index order."""
        axes = np.indices((self.L,) * self.d).reshape(self.d, -1).T
        return np.ascontiguousarray(axes - self.shift, dtype=np.int64)

    def check_coords(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if x.shape[-1:] != (self.d,):
            x = np.atleast_1d(x)
            if x.shape[-1] != self.d:
                raise InvalidCoordinateError(
                    f"coordinate has {x.shape[-1]} components, lattice has d={self.d}"
                )
        lo, hi = -(self.L / 2), self.L / 2
        if np.any(x <= lo) or np.any(x > hi):
            raise InvalidCoordinateError(
                f"coordinates must lie in ({lo}, {hi}], got {x}"
            )
        return x

    def diff_flat(self, i, j) -> np.ndarray:
        """FFT-layout flat index of the displacement between site indices.

        ``kernel_fft.ravel()[lat.diff_flat(i, j)]`` looks up a translation
        invariant kernel at x_i - x_j.  Vectorized over i, j.
        """
        ci = self.coords[np.asarray(i)]
        cj = self.coords[np.asarray(j)]
        delta = np.mod(ci - cj, self.L)
        return np.ravel_multi_index(tuple(np.moveaxis(delta, -1, 0)), (self.L,) * self.d)

    def reflect(self, kernel) -> np.ndarray:
        """The displacement kernel u -> k(-u), in FFT layout like its input."""
        axes = tuple(range(self.d))
        kern = np.asarray(kernel).reshape((self.L,) * self.d)
        return np.roll(np.flip(kern, axes), 1, axes)

    def convolve(self, kernel, v) -> np.ndarray:
        """(K v)[x] = sum_y k(x - y) v[y] for a displacement kernel (FFT
        layout) and a vector v over sites, or each vector of a stack v of
        shape (..., N), by FFT: O(N log N) time and no N x N matrix.  Site
        and FFT axis indices differ by the constant shift, which cancels in
        x - y.
        """
        shape = (self.L,) * self.d
        axes = tuple(range(-self.d, 0))
        v = np.asarray(v)
        vk = np.fft.fftn(v.reshape(v.shape[:-1] + shape), axes=axes)
        out = np.fft.ifftn(np.fft.fftn(np.reshape(kernel, shape)) * vk, axes=axes).reshape(v.shape)
        return np.ascontiguousarray(out.real) if np.isrealobj(kernel) and np.isrealobj(v) else out

    def kernel_matrix(self, kernel, rows=None) -> np.ndarray:
        """Gather a displacement kernel (FFT layout) into K[x, y] = k(x - y).

        Returns the N x N matrix, or only the rows for the site index (or
        array of site indices) ``rows``: shape (N,) or rows.shape + (N,).
        Equal to ``kernel.ravel()[diff_flat(x, y)]`` over the same pairs, but
        builds no index array of the result's size: row x is one window of
        the reflected kernel tiled twice per axis, copied out whole.
        """
        return self.kernel_rows(kernel)(rows)

    def kernel_rows(self, kernel):
        """kernel_matrix's gather with the tiled reflection built once: the
        function rows -> kernel_matrix(kernel, rows), for a scan over many
        row blocks of one kernel."""
        L, d = self.L, self.d
        # reflected[j] = k(-j), so k(x - y) = reflected(y - x), and the window
        # of the tiled reflection starting at L - x holds reflected(y - x) at y
        windows = sliding_window_view(np.tile(self.reflect(kernel), (2,) * d), (L,) * d)

        def gather(rows=None):
            rows = np.arange(self.N) if rows is None else np.asarray(rows)
            start = L - (self.coords[rows.ravel()] + self.shift)
            return windows[tuple(start.T)].reshape(rows.shape + (self.N,))

        return gather

    @cached_property
    def distance_fft(self) -> np.ndarray:
        """d-dim array, FFT layout: periodic l-infinity distance from 0."""
        ax = np.minimum(np.arange(self.L), self.L - np.arange(self.L))
        grids = np.meshgrid(*([ax] * self.d), indexing="ij")
        return np.maximum.reduce(grids)


def representative(x, y, lat: TorusLattice) -> np.ndarray:
    """The unique element of (x - y) + L*Z^d lying in (-L/2, L/2]^d."""
    cx = lat.check_coords(x)
    cy = lat.check_coords(y)
    s = lat.shift
    return np.mod(cx - cy + s, lat.L) - s


def torus_distance(x, y, lat: TorusLattice) -> int:
    """Periodic l-infinity distance between coordinates x and y."""
    return int(np.max(np.abs(representative(x, y, lat))))
