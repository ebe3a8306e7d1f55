"""Coefficient grids at band limit N.

A CoeffGrid holds the (2N+1) x (2N+1) complex entries indexed by frequency
pairs (k, l) with |k|, |l| <= N; entry (k, l) sits at data[k+N, l+N].  The
same container serves two roles: Fourier data of a doubly periodic field
(tag "fourier-real" when z[-k,-l] = conj(z[k,l]) and z[0,0] is real) and
operator matrices (tag "hermitian" when w[l,k] = conj(w[k,l])).

Tags are advisory: operations validate the actual symmetry at their
boundary instead of trusting the tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, HermiticityError, SymmetryError

FOURIER_REAL = "fourier-real"
HERMITIAN = "hermitian"
GENERAL = "general"

TAGS = (FOURIER_REAL, HERMITIAN, GENERAL)

# absolute tolerance for symmetry checks, times the grid's max-abs entry
SYMMETRY_RTOL = 1e-12


def index_range(n: int) -> np.ndarray:
    return np.arange(-n, n + 1)


def kl_mesh(n: int):
    """Meshgrid (K, L) with K[i,j] = i-n the row frequency, L the column."""
    idx = index_range(n)
    return np.meshgrid(idx, idx, indexing="ij")


@dataclass(eq=False)
class CoeffGrid:
    n: int
    data: np.ndarray
    tag: str = GENERAL

    def __post_init__(self):
        if self.n < 0:
            raise DimensionError("band limit must be non-negative, got %d" % self.n)
        if self.tag not in TAGS:
            raise DimensionError("unknown grid tag %r" % (self.tag,))
        side = 2 * self.n + 1
        arr = np.array(self.data, dtype=np.complex128)
        if arr.shape != (side, side):
            raise DimensionError(
                "grid with n=%d needs shape (%d, %d), got %r"
                % (self.n, side, side, arr.shape)
            )
        arr.setflags(write=False)  # entries never change after construction
        self.data = arr

    def entry(self, k: int, l: int) -> complex:
        if abs(k) > self.n or abs(l) > self.n:
            raise DimensionError("index (%d, %d) outside band limit %d" % (k, l, self.n))
        return complex(self.data[k + self.n, l + self.n])

    def with_data(self, data: np.ndarray, tag: str = GENERAL) -> "CoeffGrid":
        return CoeffGrid(self.n, data, tag)

    def scale(self) -> float:
        """Max-abs entry; the reference scale for symmetry tolerances."""
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    def __repr__(self):
        return "CoeffGrid(n=%d, tag=%r)" % (self.n, self.tag)


def single_entry(n: int, k: int, l: int, value: complex, tag: str = GENERAL) -> CoeffGrid:
    side = 2 * n + 1
    data = np.zeros((side, side), dtype=np.complex128)
    data[k + n, l + n] = value
    return CoeffGrid(n, data, tag)


def require_same_size(a: CoeffGrid, b: CoeffGrid):
    if a.n != b.n:
        raise DimensionError("band limits differ: %d vs %d" % (a.n, b.n))


def fourier_real_deviation(grid: CoeffGrid) -> float:
    """Max violation of z[-k,-l] = conj(z[k,l]) plus Im z[0,0]."""
    z = grid.data
    dev = float(np.max(np.abs(z - np.conj(z[::-1, ::-1]))))
    return max(dev, abs(float(z[grid.n, grid.n].imag)))


def hermitian_deviation(grid: CoeffGrid) -> float:
    w = grid.data
    return float(np.max(np.abs(w - np.conj(w.T))))


def _require_symmetry(grid: CoeffGrid, dev: float, name: str, error):
    if not dev <= SYMMETRY_RTOL * grid.scale():  # a NaN deviation fails too
        raise error("grid is not %s: deviation %.3e exceeds %.1e * scale %.3e"
                    % (name, dev, SYMMETRY_RTOL, grid.scale()))


def require_fourier_real(grid: CoeffGrid):
    _require_symmetry(grid, fourier_real_deviation(grid), FOURIER_REAL, SymmetryError)


def require_hermitian(grid: CoeffGrid):
    _require_symmetry(grid, hermitian_deviation(grid), HERMITIAN, HermiticityError)


@dataclass(eq=False)
class SampleGrid:
    """Samples of f at the uniform points (i/M, j/M), i,j in [0, M)."""

    m: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.shape != (self.m, self.m):
            raise DimensionError(
                "sample grid with m=%d needs shape (%d, %d), got %r"
                % (self.m, self.m, self.m, arr.shape)
            )
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64)
        arr = np.array(arr)
        arr.setflags(write=False)
        self.values = arr

    @classmethod
    def from_function(cls, m: int, func) -> "SampleGrid":
        pts = np.arange(m) / m
        x, y = np.meshgrid(pts, pts, indexing="ij")
        return cls(m, func(x, y))
