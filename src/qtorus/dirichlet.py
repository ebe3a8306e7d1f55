"""Dirichlet convolution machinery and the generalized transforms.

Sequences live in 1-based numpy arrays (slot 0 unused) so a[j] is the
coefficient at j.  The convolution operator D acts on frequency vectors
indexed -N..N by

    (D x)_k = sum over d | k of a_d * x_{k/d}     for k > 0
    (D x)_{-k} mirrors with conj(a_d)             (coefficients of e^{-2 pi i k t})
    (D x)_0 = x_0

Divisors never leave the window (d | k implies k/d <= k <= N), so D and
its inverse are exact on band-limited data, not approximations.

The zeta layer refuses what it cannot encode, each with DomainError: a
sigma, tau or t that is not a finite real (errors._require_finite), a
non-finite s or sequence entry (errors._require_finite_complex), a length
or term count that is not an integer (errors._require_integer), and a
sigma or Re s that is not > 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .grids import (FOURIER_REAL, GENERAL, CoeffGrid, _require_band_limit, _window_band_limit,
                    require_fourier_real)
from .errors import (DimensionError, DomainError, _require_finite, _require_finite_complex,
                     _require_integer)
from .spectral import s_map


def moebius(n: int) -> int:
    _require_integer(1, n=n)
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


@lru_cache(maxsize=16)
def _divisor_lists(lmax: int):
    """divs[m] = all divisors of m, ascending; divs[0] empty."""
    divs = [[] for _ in range(lmax + 1)]
    for d in range(1, lmax + 1):
        for m in range(d, lmax + 1, d):
            divs[m].append(d)
    return divs


@lru_cache(maxsize=16)
def _window_terms(n: int):
    """Every entry of the window operator at band limit n: (row, col, d, sgn, mu, flat).

    Term j is the divisor d of k = row[j] - n, at column k / d = col[j] - n;
    sgn[j] is the sign of k (the negative cone takes conj(a_d)),
    mu[j] = mu(d) and flat[j] = row[j] * (2n+1) + col[j] is the entry's
    position in the flattened matrix.  Terms run over k = -N..N, then
    ascending d; k = 0 has the single term (0, 0) with d = 1.  Each entry
    is hit once.
    """
    divs = _divisor_lists(n)
    pairs = [(k, d) for k in range(-n, n + 1) for d in (divs[abs(k)] if k else [1])]
    k, d = np.array(pairs, dtype=np.int64).T.copy()
    row, col = k + n, k // d + n
    terms = (row, col, d, np.sign(k),
             np.array([moebius(j) for j in d.tolist()], dtype=np.int8), row * (2 * n + 1) + col)
    for a in terms:
        a.setflags(write=False)
    return terms


def _window_image(fhat: CoeffGrid, data: np.ndarray) -> CoeffGrid:
    """The grid B fhat B^T of window operators B.  Their negative cone takes
    conj(a_d) (the sgn column above), so a fourier-real fhat gives a
    fourier-real image; no other symmetry survives, so any other is general.
    data is the caller's fresh result, handed over read-only: the grid keeps it."""
    data.setflags(write=False)
    return CoeffGrid(fhat.n, data, FOURIER_REAL if fhat.tag == FOURIER_REAL else GENERAL)


def dirichlet_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a*b)_n = sum over d | n of a_d b_{n/d}; 1-based arrays in and out."""
    lmax = min(len(a), len(b)) - 1
    out = np.zeros(lmax + 1, dtype=np.complex128)
    divs = _divisor_lists(lmax)
    for n in range(1, lmax + 1):
        out[n] = sum(a[d] * b[n // d] for d in divs[n])
    return out


def dirichlet_inverse(a: np.ndarray) -> np.ndarray:
    """b with a*b = (1, 0, 0, ...), by the divisor-sum recursion."""
    lmax = len(a) - 1
    if lmax < 1:
        raise DomainError("need at least the coefficient at 1")
    if a[1] == 0:
        raise DomainError("sequence has a_1 = 0; no Dirichlet inverse")
    b = np.zeros(lmax + 1, dtype=np.complex128)
    b[1] = 1.0 / a[1]
    divs = _divisor_lists(lmax)
    for n in range(2, lmax + 1):
        s = sum(a[d] * b[n // d] for d in divs[n] if d > 1)
        b[n] = -s / a[1]
    return b


def unit_sequence(lmax: int) -> np.ndarray:
    _require_integer(1, lmax=lmax)
    u = np.zeros(lmax + 1, dtype=np.complex128)
    u[1] = 1.0
    return u


@dataclass(eq=False)
class ArithmeticSeq:
    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=np.complex128).copy()
        if arr.ndim != 1 or arr.size < 2:
            raise DimensionError("sequence needs 1-based entries up to at least 1")
        arr[0] = 0.0
        _require_finite_complex(a=arr)
        if arr[1] == 0:
            raise DomainError("a_1 must be nonzero")
        self.a = arr

    @property
    def lmax(self) -> int:
        return self.a.size - 1

    @cached_property
    def b(self) -> np.ndarray:
        return dirichlet_inverse(self.a)


def _require_sigma(sigma: float):
    _require_finite(sigma=sigma)
    if not sigma > 1:
        raise DomainError("the zeta re-encoding needs a finite sigma > 1, got %g" % sigma)


@dataclass(frozen=True)
class ZetaParams:
    sigma: float
    tau: float

    def __post_init__(self):
        _require_sigma(self.sigma)
        _require_finite(tau=self.tau)

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.tau)

    def sequence(self, lmax: int) -> ArithmeticSeq:
        """a_k = k^-(sigma + i tau), the periodized-zeta coefficients."""
        _require_integer(lmax=lmax)
        a = np.zeros(lmax + 1, dtype=np.complex128)
        a[1:] = np.exp(-self.s * np.log(np.arange(1, lmax + 1)))
        return ArithmeticSeq(a)

    def moebius_inverse(self, lmax: int) -> np.ndarray:
        """Closed form of the Dirichlet inverse: b_k = mu(k) k^-s."""
        return moebius_inverse_rows(self.sigma, [self.tau], lmax)[0]


def moebius_inverse_rows(sigma: float, taus, lmax: int) -> np.ndarray:
    """b_k = mu(k) k^-sigma e^{-i tau log k} for each tau: one 1-based row per ordinate."""
    return _moebius_rows(_moebius_terms(sigma, lmax), taus)


def _moebius_terms(sigma: float, lmax: int):
    """(k, mu(k) k^-sigma, log k, lmax) over the k <= lmax with mu(k) != 0:
    all that moebius_inverse_rows needs besides the ordinates, so that a
    caller with many blocks of ordinates builds it once."""
    _require_sigma(sigma)
    _require_integer(0, lmax=lmax)
    mu = np.array([moebius(j) for j in range(1, lmax + 1)], dtype=np.float64)
    k = np.flatnonzero(mu) + 1  # b_k = 0 where mu(k) = 0: no phase is taken there
    logk = np.log(k)
    return k, mu[k - 1] * np.exp(-sigma * logk), logk, lmax


def _moebius_rows(terms, taus) -> np.ndarray:
    """The rows of moebius_inverse_rows from its _moebius_terms."""
    k, coef, logk, lmax = terms
    rows = np.zeros((len(taus), lmax + 1), dtype=np.complex128)
    rows[:, k] = coef * np.exp(-1j * np.multiply.outer(np.asarray(taus, dtype=np.float64), logk))
    return rows


def _apply_coeffs(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Convolution operator with 1-based coefficients along axis 0 of x.

    x is indexed -N..N on axis 0; the negative cone uses conjugated
    coefficients, index 0 passes through.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = _window_band_limit("x", x.shape[:1])
    _require_finite_complex(x=x)
    return d_matrix(coeffs, n) @ x


def apply_D(seq: ArithmeticSeq, x: np.ndarray) -> np.ndarray:
    return _apply_coeffs(seq.a, x)


def apply_D_inv(seq: ArithmeticSeq, x: np.ndarray) -> np.ndarray:
    return _apply_coeffs(seq.b, x)


def d_matrix(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Dense matrix of the convolution operator on indices -N..N.

    coeffs is 1-based along its last axis; a stack of shape (C, L) gives
    the C matrices, shape (C, 2N+1, 2N+1).
    """
    _require_band_limit(n)
    coeffs = np.asarray(coeffs)
    lmax = coeffs.shape[-1] - 1
    if lmax < n:
        raise DimensionError(
            "sequence only reaches %d but band limit is %d" % (lmax, n)
        )
    _, _, d, _, _, flat = _window_terms(n)
    neg, pos = slice(0, d.size // 2), slice(d.size // 2 + 1, None)  # k = 0 sits between
    m = 2 * n + 1
    mat = np.zeros(coeffs.shape[:-1] + (m * m,), dtype=np.complex128)
    mat[..., flat[pos]] = coeffs[..., d[pos]]
    mat[..., flat[neg]] = np.conj(coeffs[..., d[neg]])
    mat[..., n * m + n] = 1.0
    return mat.reshape(coeffs.shape[:-1] + (m, m))


def d_transform_2d(seq: ArithmeticSeq, fhat: CoeffGrid) -> CoeffGrid:
    """Z = B fhat B^T with B = D^-1: inverse convolution down columns, then rows."""
    b = d_matrix(seq.b, fhat.n)
    return _window_image(fhat, (b @ fhat.data) @ b.T)


def qd_transform(seq: ArithmeticSeq, f: CoeffGrid) -> CoeffGrid:
    """Generalized Q-transform: rearrange the D-transformed coefficients."""
    require_fourier_real(f)
    z = d_transform_2d(seq, CoeffGrid(f.n, f.data, FOURIER_REAL))
    return s_map(z)


def operator_norm_bound(seq: ArithmeticSeq) -> float:
    """max(1, sum |a_n|): upper bound for ||D|| at any truncation."""
    return max(1.0, float(np.sum(np.abs(seq.a[1:]))))


def estimated_operator_norm(seq: ArithmeticSeq, n: int) -> float:
    """Largest singular value of the truncated D, exact (by SVD)."""
    return float(np.linalg.norm(d_matrix(seq.a, n), 2))


class PeriodizedZeta(NamedTuple):
    value: complex
    tail_bound: float


def periodized_zeta(s: complex, t: float, terms: int) -> PeriodizedZeta:
    """Partial sum of F(s, t) = sum_{k>=1} e^{2 pi i k t} / k^s, Re s > 1.

    The reported tail bound is sum_{k>terms} k^-Re(s), estimated by the
    integral comparison; it bounds the truncation error of the value.
    """
    _require_finite_complex(s=s)
    _require_finite(t=t)
    s = complex(s)
    if not s.real > 1:
        raise DomainError("periodized zeta needs a finite s with Re s > 1, got %r" % s)
    _require_integer(0, terms=terms)
    sigma = s.real
    if terms == 0:
        return PeriodizedZeta(0.0 + 0.0j, 1.0 + 1.0 / (sigma - 1.0))
    k = np.arange(1, terms + 1, dtype=np.float64)
    value = complex(np.sum(np.exp(2j * np.pi * t * k - s * np.log(k))))
    tail = float(terms) ** (1.0 - sigma) / (sigma - 1.0)
    return PeriodizedZeta(value, tail)
