"""Slow reference implementations the fast code is checked against.

Everything here is written in the most literal form possible (scalar
loops, explicit exponentials, explicit divisor sums) and shares no code
paths with the package beyond the CoeffGrid container and the
KahanAccumulator fold.  The exceptions are sequential_per_zero_average,
which keeps the per-ordinate form of the oracle averaging route on the
package's single-sequence transform and recursive Dirichlet inverse, and
reference_remainder_rhs, which takes phi from LindbladSet.phi_matrix.
"""

import json

import numpy as np

from qtorus import (
    FOURIER_REAL,
    GENERAL,
    HERMITIAN,
    CoeffGrid,
    KahanAccumulator,
    ZetaParams,
    d_transform_2d,
)

SQRT2 = np.sqrt(2.0)


def naive_analyze(values):
    """Direct double-sum DFT, no np.fft anywhere."""
    m = values.shape[0]
    n = (m - 1) // 2
    out = np.zeros((m, m), dtype=np.complex128)
    ii = np.arange(m)
    for k in range(-n, n + 1):
        col = np.exp(-2j * np.pi * k * ii / m)
        for l in range(-n, n + 1):
            row = np.exp(-2j * np.pi * l * ii / m)
            out[k + n, l + n] = np.sum(values * col[:, None] * row[None, :]) / (m * m)
    return out


def naive_s_map(z):
    """Entry-by-entry restatement of the rearrangement rules."""
    n = z.n
    w = np.zeros_like(z.data)
    for k in range(-n, n + 1):
        for l in range(-n, n + 1):
            if k < l:
                w[k + n, l + n] = z.entry(k, l)
            elif k > l:
                w[k + n, l + n] = np.conj(z.entry(l, k))
            elif k < 0:
                w[k + n, k + n] = SQRT2 * z.entry(k, k).imag
            elif k > 0:
                w[k + n, k + n] = SQRT2 * z.entry(k, k).real
            else:
                w[n, n] = z.entry(0, 0).real
    return CoeffGrid(n, w, HERMITIAN)


def naive_divisor_transform_1d(avals, x, conjugate_negative=True):
    """out_k = sum over d | k of a_d x_{k/d} on the window, explicit loops.

    avals is 1-based (avals[1] = a_1); x is indexed -n..n via x[k+n].
    Negative k uses conj(a_d) when conjugate_negative is set; index 0
    passes through untouched.
    """
    n = (len(x) - 1) // 2
    out = np.zeros(len(x), dtype=np.complex128)
    out[n] = x[n]
    for k in range(1, n + 1):
        for d in range(1, k + 1):
            if k % d == 0:
                out[k + n] += avals[d] * x[k // d + n]
                cf = np.conj(avals[d]) if conjugate_negative else avals[d]
                out[-k + n] += cf * x[-(k // d) + n]
    return out


def naive_divisor_transform_2d(avals, fhat):
    """Row-then-column application of the 1D divisor transform."""
    n = fhat.n
    m = 2 * n + 1
    cols = np.zeros((m, m), dtype=np.complex128)
    for j in range(m):
        cols[:, j] = naive_divisor_transform_1d(avals, fhat.data[:, j])
    rows = np.zeros((m, m), dtype=np.complex128)
    for i in range(m):
        rows[i, :] = naive_divisor_transform_1d(avals, cols[i, :])
    return CoeffGrid(n, rows, GENERAL)


def sequential_phase_average(taus, xs):
    """(1/n) sum of exp(-i tau x), folded one ordinate at a time in ascending order."""
    acc = KahanAccumulator(np.shape(xs))
    for tau in taus:
        acc.add(np.exp(-1j * tau * xs))
    return acc.value() / len(taus)


def sequential_per_zero_average(fhat, sigma, taus):
    """Mean of the per-ordinate inverse transforms, folded one ordinate at a time.

    Each ordinate's inverse coefficients come from the divisor-sum
    recursion (ArithmeticSeq.b), not from the Moebius closed form.
    """
    acc = KahanAccumulator(fhat.data.shape)
    for tau in taus:
        seq = ZetaParams(sigma, tau).sequence(max(fhat.n, 1))
        acc.add(d_transform_2d(seq, fhat).data)
    return acc.value() / len(taus)


def reference_remainder_rhs(ad, lset, sign):
    """The generator minus its affine phase part, term by term per operator.

    sign is +1 in the Heisenberg (observable) picture, -1 in the
    Schroedinger (state) picture.
    """
    out = np.zeros_like(ad)
    if lset.c is not None:
        cd = lset.c.data
        out += (sign * 1j) * (cd @ ad - ad @ cd)
    for l in lset.ls:
        ld = l.data
        lh = np.conj(ld.T)
        lhl = lh @ ld
        if sign > 0:
            out += lh @ ad @ ld - 0.5 * (lhl @ ad + ad @ lhl)
        else:
            out += ld @ ad @ lh - 0.5 * (lhl @ ad + ad @ lhl)
    phi = lset.phi_matrix()
    if phi is not None:
        out += (phi if sign > 0 else np.conj(phi)) * ad
    return out


def reference_grid_to_json(grid):
    """Grid JSON as the stdlib writer spells it: spaced separators, repr floats."""
    entries = [[float(z.real), float(z.imag)] for z in grid.data.reshape(-1)]
    return json.dumps({"n": grid.n, "tag": grid.tag, "entries": entries})


def symmetrize_fourier_real(raw):
    m = raw.shape[0]
    z = 0.5 * (raw + np.conj(raw[::-1, ::-1]))
    z[(m - 1) // 2, (m - 1) // 2] = z[(m - 1) // 2, (m - 1) // 2].real
    return z


def random_fourier_real(n, rng, scale=1.0):
    m = 2 * n + 1
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return CoeffGrid(n, symmetrize_fourier_real(scale * raw), FOURIER_REAL)


def random_hermitian(n, rng, scale=1.0):
    m = 2 * n + 1
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return CoeffGrid(n, 0.5 * scale * (raw + np.conj(raw.T)), HERMITIAN)


def random_general(n, rng, scale=1.0):
    m = 2 * n + 1
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return CoeffGrid(n, scale * raw, GENERAL)
