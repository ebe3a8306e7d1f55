"""Fourier analysis on the torus and the symmetry rearrangement.

The central object is the index rearrangement s_map taking a point-symmetric
coefficient grid (z[-k,-l] = conj(z[k,l])) to a Hermitian matrix:

    w[k,l] = z[k,l]            for k < l
    w[k,l] = conj(z[l,k])      for k > l
    w[k,k] = sqrt(2) * Im z[k,k]   for k < 0
    w[k,k] = sqrt(2) * Re z[k,k]   for k > 0
    w[0,0] = z[0,0]  (real)

The sqrt(2) on the diagonal makes the map an isometry for every weight
that depends only on k^2 + l^2 (in particular for all Sobolev weights):
the off-diagonal rules shuffle entries between index pairs with equal
k^2 + l^2 and the diagonal rules split |z[k,k]|^2 into Re^2 + Im^2 halves.

q_transform composes the field analysis with s_map; it is complex-linear
once extended to u = f + i g by q_transform(u) = s_map(f) + i s_map(g).
"""

from __future__ import annotations

import numpy as np

from .grids import (
    FOURIER_REAL,
    GENERAL,
    HERMITIAN,
    CoeffGrid,
    SampleGrid,
    _window_band_limit,
    require_fourier_real,
    require_hermitian,
    require_same_size,
)

SQRT2 = np.sqrt(2.0)


def _upper(n: int) -> np.ndarray:
    """Mask of the entries above the diagonal, k < l."""
    idx = np.arange(2 * n + 1)
    return idx[:, None] < idx


def s_map(z: CoeffGrid) -> CoeffGrid:
    """Rearrange a fourier-real grid into a Hermitian matrix."""
    require_fourier_real(z)
    n = z.n
    zd = z.data
    w = np.where(_upper(n), zd, np.conj(zd.T))
    d = np.diagonal(zd)
    np.fill_diagonal(w, np.concatenate((SQRT2 * d[:n].imag, d[n:n + 1].real,
                                        SQRT2 * d[n + 1:].real)))
    return CoeffGrid(n, w, HERMITIAN)


def s_inv(w: CoeffGrid) -> CoeffGrid:
    """Invert s_map: Hermitian matrix back to a fourier-real grid.

    Above the diagonal (k < l) the entries copy over; below they follow
    from the point symmetry; the diagonal unpacks the two real numbers
    w[k,k], w[-k,-k] into the complex z[k,k]:

        z[k,k] = (w[-k,-k] + i w[k,k]) / sqrt(2)   for k < 0
        z[k,k] = (w[k,k] - i w[-k,-k]) / sqrt(2)   for k > 0
        z[0,0] = w[0,0]
    """
    require_hermitian(w)
    n = w.n
    wd = w.data
    z = np.where(_upper(n), wd, np.conj(wd[::-1, ::-1]))
    d = np.diagonal(wd).real  # hermitian: diagonal is real
    r = d[::-1]  # value at the negated index
    np.fill_diagonal(z, np.concatenate(((r[:n] + 1j * d[:n]) / SQRT2, d[n:n + 1],
                                        (d[n + 1:] - 1j * r[n + 1:]) / SQRT2)))
    return CoeffGrid(n, z, FOURIER_REAL)


def analyze(samples: SampleGrid) -> CoeffGrid:
    """Fourier coefficients from samples on the (2N+1)^2 uniform grid.

    z[k,l] = (1/M^2) sum_{i,j} f(i/M, j/M) exp(-2 pi i (k i + l j) / M),
    M = 2N+1.  Exact for trigonometric polynomials of degree <= N.
    """
    n = _window_band_limit("samples", (samples.m,))
    m = samples.m
    z = np.fft.fftshift(np.fft.fft2(samples.values)) / (m * m)
    return CoeffGrid(n, z, GENERAL)


def synthesize(z: CoeffGrid) -> SampleGrid:
    """Evaluate the trigonometric polynomial with coefficients z on the grid."""
    m = 2 * z.n + 1
    vals = np.fft.ifft2(np.fft.ifftshift(z.data)) * (m * m)
    return SampleGrid(m, vals)


def hermitian_split(c: CoeffGrid):
    """Unique decomposition C = A + iB with A, B Hermitian."""
    cd = c.data
    ct = np.conj(cd.T)
    a = (cd + ct) / 2.0
    b = (cd - ct) / 2.0j
    return CoeffGrid(c.n, a, HERMITIAN), CoeffGrid(c.n, b, HERMITIAN)


def q_transform(f: CoeffGrid, g: CoeffGrid | None = None) -> CoeffGrid:
    """Q-transform: Hermitian image of a field, s_map(f) + i s_map(g)."""
    w = s_map(f)
    if g is None:
        return w
    require_same_size(f.n, g.n)
    wg = s_map(g)
    return CoeffGrid(f.n, w.data + 1j * wg.data, GENERAL)


def q_inverse(c: CoeffGrid):
    """Split C into Hermitian parts and map each back to a field grid."""
    a, b = hermitian_split(c)
    return s_inv(a), s_inv(b)
