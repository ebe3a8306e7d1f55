"""Coefficient grids at band limit N.

A CoeffGrid holds the (2N+1) x (2N+1) complex entries indexed by frequency
pairs (k, l) with |k|, |l| <= N; entry (k, l) sits at data[k+N, l+N].  The
same container serves two roles: Fourier data of a doubly periodic field
(tag "fourier-real" when z[-k,-l] = conj(z[k,l]) and z[0,0] is real) and
operator matrices (tag "hermitian" when w[l,k] = conj(w[k,l])).

Tags are advisory: operations validate the actual symmetry at their
boundary instead of trusting the tag.  A band limit is checked where a
window is built (CoeffGrid, index_range, single_entry, dirichlet.d_matrix,
gridio.ingest_pgm) and an index by CoeffGrid.entry and single_entry; a
negative band limit or an index outside the window is refused, never
wrapped or truncated.  N is read off a window of length 2N+1 by
_window_band_limit alone (analyze, apply_D, apply_D_inv,
broadband_average_1d, LindbladSet.n), and band limits are compared by
require_same_size alone (q_transform, the commutators and Sobolev pairings,
LindbladSet.n, the Lindblad generator, diagonal_lindblad_closed).

A grid's data is read-only.  A CoeffGrid copies the array it is given
unless nothing else can write to it: an array that np.asarray made from
the input, or a C-contiguous, read-only complex128 array that owns its
memory, is kept as it is, so a routine that hands over a fresh result
read-only pays no copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, HermiticityError, SymmetryError, _require_integer

FOURIER_REAL = "fourier-real"
HERMITIAN = "hermitian"
GENERAL = "general"

TAGS = (FOURIER_REAL, HERMITIAN, GENERAL)

# absolute tolerance for symmetry checks, times the grid's max-abs entry
SYMMETRY_RTOL = 1e-12


def _require_band_limit(n: int):
    _require_integer(n=n)
    if n < 0:
        raise DimensionError("band limit must be non-negative, got %d" % n)


def index_range(n: int) -> np.ndarray:
    _require_band_limit(n)
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
        _require_band_limit(self.n)
        if self.tag not in TAGS:
            raise DimensionError("unknown grid tag %r" % (self.tag,))
        side = 2 * self.n + 1
        arr = np.asarray(self.data, dtype=np.complex128)
        # keep an array that asarray made, or one no one can write through: the
        # caller's complex128 array that is C-contiguous, read-only and its own
        # memory; copy any other, writable arrays and views included
        if (arr is self.data or arr.base is not None) and not (
                arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable):
            arr = np.array(arr)
        if arr.shape != (side, side):
            raise DimensionError(
                "grid with n=%d needs shape (%d, %d), got %r"
                % (self.n, side, side, arr.shape)
            )
        arr.setflags(write=False)  # entries never change after construction
        self.data = arr

    def entry(self, k: int, l: int) -> complex:
        _require_index(self.n, k, l)
        return complex(self.data[k + self.n, l + self.n])

    def with_data(self, data: np.ndarray, tag: str = GENERAL) -> "CoeffGrid":
        return CoeffGrid(self.n, data, tag)

    def scale(self) -> float:
        """Max-abs entry; the reference scale for symmetry tolerances."""
        return float(np.max(np.abs(self.data)))

    def __repr__(self):
        return "CoeffGrid(n=%d, tag=%r)" % (self.n, self.tag)


def _require_index(n: int, k: int, l: int):
    _require_integer(k=k, l=l)
    if abs(k) > n or abs(l) > n:
        raise DimensionError("index (%d, %d) outside band limit %d" % (k, l, n))


def single_entry(n: int, k: int, l: int, value: complex, tag: str = GENERAL) -> CoeffGrid:
    _require_band_limit(n)
    _require_index(n, k, l)
    side = 2 * n + 1
    data = np.zeros((side, side), dtype=np.complex128)
    data[k + n, l + n] = value
    return CoeffGrid(n, data, tag)


def _window_band_limit(name: str, shape: tuple) -> int:
    """N of a window of shape (2N+1,); any other shape is refused."""
    if len(shape) != 1 or shape[0] % 2 != 1:
        raise DimensionError("%s must have shape (2N+1,), got %r" % (name, shape))
    return shape[0] // 2


def require_same_size(*ns):
    """Refuse band limits that differ; a None (an empty operator set) is left out."""
    ns = [n for n in ns if n is not None]
    if any(n != ns[0] for n in ns):
        raise DimensionError("band limits differ: %s" % " vs ".join(map(str, ns)))


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
        _require_integer(m=self.m)
        arr = np.asarray(self.values)
        if arr.shape != (self.m, self.m):
            raise DimensionError(
                "sample grid with m=%d needs shape (%d, %d), got %r"
                % (self.m, self.m, self.m, arr.shape)
            )
        arr = np.array(arr, dtype=arr.dtype if np.iscomplexobj(arr) else np.float64)
        arr.setflags(write=False)
        self.values = arr

    @classmethod
    def from_function(cls, m: int, func) -> "SampleGrid":
        pts = np.arange(m) / m
        x, y = np.meshgrid(pts, pts, indexing="ij")
        return cls(m, func(x, y))
