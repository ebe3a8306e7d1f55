"""Broadband averaging over zeta-zero ordinates.

A smooth field re-encoded through the slowly-decaying bases D(sigma, tau)
is recovered by averaging over many ordinates tau_n: the corrections ride
on averages M(x) of exp(-i tau_n x) phases, which cancel as the table
grows.  Ordinates are ingested from text tables, never computed here.

Two implementations of the 2D average are kept deliberately separate:
broadband_average_2d applies averaged phase factors divisor pair by
divisor pair, while broadband_average_2d_per_zero averages the per-zero
inverse D-transforms B(tau) fhat B(tau)^T.  They must agree; tests hold
them to 1e-10.

Phase averages are summed in fixed blocks of BLOCK ordinates (pairwise
np.sum within a block), and the block sums are Neumaier-folded in
ascending order, the partial block below a count last.  M over the first
c ordinates therefore depends on c alone, not on which other counts or
arguments share the pass, and one pass over the table serves every
count.  Only distinct arguments x > 0 are evaluated: M(-x) = conj(M(x))
and M(0) = 1 exactly.  The per-zero route sums its grids in the same
fixed blocks (SUB_BATCH ordinates per stacked matrix product, in
ascending order) and Neumaier-folds the block sums the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dirichlet import _divisor_lists, d_matrix, moebius, moebius_inverse_rows
from .errors import DimensionError, DomainError, EmptyRangeError, FormatError
from .grids import FOURIER_REAL, GENERAL, CoeffGrid
from .spectral import s_map
from .summation import KahanAccumulator

BLOCK = 256  # ordinates per pairwise block of a phase average
SUB_BATCH = 8  # ordinates per stacked matrix product of the per-zero route


@dataclass(eq=False)
class ZeroTable:
    ordinates: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.ordinates, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise FormatError("zero table needs at least one ordinate")
        if arr[0] <= 0:
            raise FormatError("ordinates must be positive")
        if np.any(np.diff(arr) <= 0):
            raise FormatError("ordinates must be strictly increasing")
        arr = np.array(arr)
        arr.setflags(write=False)
        self.ordinates = arr

    @property
    def count(self) -> int:
        return int(self.ordinates.size)

    def count_below(self, t: float) -> int:
        """N(T): how many ordinates are <= T."""
        return int(np.searchsorted(self.ordinates, t, side="right"))

    def upto(self, t: float) -> np.ndarray:
        taus = self.ordinates[: self.count_below(t)]
        if taus.size == 0:
            raise EmptyRangeError("no ordinates at or below T=%g" % t)
        return taus

    def t_covering(self, count: int) -> float:
        """Smallest T whose window holds exactly `count` leading ordinates."""
        if count < 1 or count > self.count:
            raise EmptyRangeError(
                "table holds %d ordinates, cannot cover %d" % (self.count, count)
            )
        return float(self.ordinates[count - 1])


def load_zero_table(source) -> ZeroTable:
    """Parse an ordinate table: one positive decimal per line, '#' comments."""
    if hasattr(source, "read"):
        lines = source
        close = False
    else:
        lines = open(source, "r", encoding="utf-8")
        close = True
    try:
        vals = []
        prev = 0.0
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                tau = float(line)
            except ValueError:
                raise FormatError("line %d: not a decimal ordinate: %r" % (lineno, line))
            if not math.isfinite(tau) or tau <= 0:
                raise FormatError("line %d: ordinate must be positive and finite" % lineno)
            if tau <= prev:
                raise FormatError(
                    "line %d: ordinates must be strictly increasing (%r after %r)"
                    % (lineno, tau, prev)
                )
            vals.append(tau)
            prev = tau
        if not vals:
            raise FormatError("no ordinates found")
        return ZeroTable(np.array(vals))
    except UnicodeDecodeError as exc:
        raise FormatError("zero table is not UTF-8 text: %s" % exc)
    finally:
        if close:
            lines.close()


def _block_sum(taus: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum over one block of exp(-i tau x): pairwise np.sum along the contiguous tau axis."""
    arg = np.multiply.outer(xs, taus)
    out = np.empty(xs.shape, dtype=np.complex128)
    out.imag = -np.sum(np.sin(arg, out=arg), axis=1)
    np.multiply.outer(xs, taus, out=arg)  # one (K, BLOCK) buffer serves both passes
    out.real = np.sum(np.cos(arg, out=arg), axis=1)
    return out


def _prefix_phase_sums(taus: np.ndarray, xs: np.ndarray, counts) -> dict:
    """{c: sum of exp(-i tau x) over taus[:c]} for every c, in one pass over the blocks.

    The full blocks below c are Neumaier-folded in ascending order and the
    partial block [BLOCK * (c // BLOCK), c) is folded last, on a copy, so
    each sum depends on c alone.
    """
    acc = KahanAccumulator(xs.shape)
    folded = 0
    sums = {}
    for c in sorted(set(counts)):
        full = c // BLOCK
        for b in range(folded, full):
            acc.add(_block_sum(taus[b * BLOCK:(b + 1) * BLOCK], xs))
        folded = full
        if c % BLOCK:
            part = acc.copy()
            part.add(_block_sum(taus[full * BLOCK:c], xs))
            sums[c] = part.value()
        else:
            sums[c] = acc.value()
    return sums


def _phase_means(taus: np.ndarray, xs, counts) -> list:
    """M(x) over the first c ordinates, for each c in counts.

    Only the distinct |x| > 0 are evaluated; M(-x) = conj(M(x)) and
    M(0) = 1 exactly.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ax, inv = np.unique(np.abs(xs).ravel(), return_inverse=True)
    live = ax != 0
    sums = _prefix_phase_sums(taus, ax[live], counts)
    means = []
    for c in counts:
        m = np.ones(ax.shape, dtype=np.complex128)
        m[live] = sums[c] / c
        m = m[inv].reshape(xs.shape)
        means.append(np.where(xs < 0, np.conj(m), m))
    return means


def phase_average(taus: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """M(x) = (1/n) sum over tau of exp(-i tau x), in fixed blocks, compensated."""
    return _phase_means(np.asarray(taus, dtype=np.float64), xs, [len(taus)])[0]


def c_d(d: int, sigma: float, zeros: ZeroTable, t: float) -> float:
    """Modulus of the zero-averaged coefficient at d: |avg d^-(sigma+i tau)|."""
    if d < 2:
        raise DomainError("c_d needs d >= 2, got %d" % d)
    taus = zeros.upto(t)
    m = phase_average(taus, np.array([math.log(d)]))
    return float(d ** (-sigma) * abs(m[0]))


def _require_sigma(sigma: float):
    if not (math.isfinite(sigma) and sigma > 1):
        raise DomainError("broadband averaging needs a finite sigma > 1, got %g" % sigma)


@lru_cache(maxsize=16)
def _axis_terms(n: int):
    """The divisor expansion of one axis at band limit n: (pos, src, d, sgn, mu).

    One term per index k = pos[j] - n and divisor d = d[j] of k with
    mu[j] = mu(d) != 0: it reads the coefficient at k / d = src[j] - n, and
    sgn[j] is the sign of k.  k = 0 sees only d = 1.  Terms run over k,
    then ascending d.
    """
    divs = _divisor_lists(max(n, 1))
    pos, src, dd, sgn, mus = [], [], [], [], []
    for k in range(-n, n + 1):
        for d in (divs[abs(k)] if k else [1]):
            mu = moebius(d)
            if mu:
                pos.append(k + n)
                src.append(k // d + n)
                dd.append(d)
                sgn.append((k > 0) - (k < 0))
                mus.append(mu)
    terms = tuple(np.array(a, dtype=np.int64) for a in (pos, src, dd, sgn)) + (
        np.array(mus, dtype=np.int8),)
    for a in terms:
        a.setflags(write=False)
    return terms


def _sum_by_index(index: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of terms grouped by index, each sum in term order."""
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(index, weights=terms.real, minlength=size)
    out.imag = np.bincount(index, weights=terms.imag, minlength=size)
    return out


def broadband_average_1d(fhat: np.ndarray, sigma: float, zeros: ZeroTable,
                         t: float) -> np.ndarray:
    """Average of the 1D re-encodings; index 0 passes through exactly.

    z_k = fhat_k + sum over d | k, d > 1 of
          mu(d) * avg_n d^-(sigma + i tau_n) * fhat_{k/d}
    with conjugated averages on the negative cone.
    """
    _require_sigma(sigma)
    fhat = np.asarray(fhat, dtype=np.complex128)
    if fhat.ndim != 1 or fhat.size % 2 != 1:
        raise DimensionError("coefficient vector must have odd length 2N+1")
    taus = zeros.upto(t)
    pos, src, dd, sgn, mu = _axis_terms((fhat.size - 1) // 2)
    m = _phase_means(taus, sgn * np.log(dd), [taus.size])[0]  # M(0) = 1 at d = 1
    terms = m * (mu * dd.astype(np.float64) ** (-float(sigma))) * fhat[src]
    return _sum_by_index(pos, terms, fhat.size)


@lru_cache(maxsize=16)
def _direct_plan(n: int):
    """Divisor-pair terms of the direct route at band limit n.

    Returns (out, src, key, mu, dr, xs).  Term j adds
    mu[j] * dr[j]^-sigma * M(xs[key[j]]) * fhat.flat[src[j]] to the flat
    output entry out[j]; mu = mu(d) mu(r), dr = d r, and xs holds
    log(num) - log(den) of each distinct gcd-reduced ratio
    num/den = d^sgn(k) r^sgn(l).  Terms are outer products of the axis
    expansion, so they run over k, d, l, r in that nesting order and each
    output sums ascending in d, then r.
    """
    pos, src, dd, sgn, mus = _axis_terms(n)
    up = np.where(sgn > 0, dd, 1)
    down = np.where(sgn < 0, dd, 1)

    m = 2 * n + 1
    num = np.multiply.outer(up, up).ravel()
    den = np.multiply.outer(down, down).ravel()
    g = np.gcd(num, den)
    num //= g
    den //= g
    del g
    base = int(den.max()) + 1
    packed, key = np.unique(num * base + den, return_inverse=True)
    del num, den
    xs = np.array([math.log(p) - math.log(q) for p, q in
                   zip((packed // base).tolist(), (packed % base).tolist())])
    plan = (
        np.add.outer(pos * m, pos).ravel().astype(np.int32),
        np.add.outer(src * m, src).ravel().astype(np.int32),
        key.astype(np.int32),
        np.multiply.outer(mus, mus).ravel(),
        np.multiply.outer(dd, dd).ravel().astype(np.int32),
        xs,
    )
    for a in plan:
        a.setflags(write=False)
    return plan


def broadband_average_2d_counts(fhat: CoeffGrid, sigma: float, zeros: ZeroTable,
                                counts) -> list:
    """Direct route over the first c ordinates, for each c in counts.

    zbar[k,l] = sum over d | k, r | l of
        mu(d) mu(r) (d r)^-sigma * M(sgn(k) log d + sgn(l) log r) * fhat[k/d, l/r]
    where M is the zero-averaged phase.  All counts share one pass over
    the ordinates; the grid at c is the same whichever other counts are
    requested.  The (0,0) entry is exact: only d = r = 1 reaches it and
    M(0) = 1.
    """
    _require_sigma(sigma)
    for c in counts:
        if not 1 <= c <= zeros.count:
            raise EmptyRangeError(
                "table holds %d ordinates, cannot average over %d" % (zeros.count, c))
    n = fhat.n
    out, src, key, mu, dr, xs = _direct_plan(n)
    coef = mu * dr.astype(np.float64) ** (-float(sigma))
    f = fhat.data.ravel()[src]
    tag = FOURIER_REAL if fhat.tag == FOURIER_REAL else GENERAL
    grids = []
    for m_c in _phase_means(zeros.ordinates, xs, counts):
        terms = m_c[key]
        terms *= coef
        terms *= f
        flat = _sum_by_index(out, terms, fhat.data.size)
        grids.append(CoeffGrid(n, flat.reshape(fhat.data.shape), tag))
    return grids


def broadband_average_2d(fhat: CoeffGrid, sigma: float, zeros: ZeroTable,
                         t: float) -> CoeffGrid:
    """Direct route over the ordinates at or below t; see broadband_average_2d_counts."""
    return broadband_average_2d_counts(fhat, sigma, zeros, [zeros.count_below(t)])[0]


def broadband_average_2d_per_zero(fhat: CoeffGrid, sigma: float, zeros: ZeroTable,
                                  t: float) -> CoeffGrid:
    """Oracle route: average the per-ordinate inverse D-transforms.

    Each ordinate's inverse operator B(tau) comes from the closed form
    b_d = mu(d) d^-sigma e^{-i tau log d}; the grids B fhat B^T are formed
    SUB_BATCH ordinates at a time as stacked matrix products and summed in
    fixed blocks of BLOCK ordinates, and the block sums are Neumaier-folded
    in ascending order.
    """
    _require_sigma(sigma)
    n = fhat.n
    taus = zeros.upto(t)
    acc = KahanAccumulator(fhat.data.shape)
    for start in range(0, taus.size, BLOCK):
        rows = moebius_inverse_rows(sigma, taus[start:start + BLOCK], n)
        block = np.zeros(fhat.data.shape, dtype=np.complex128)
        for sub in range(0, rows.shape[0], SUB_BATCH):
            b = d_matrix(rows[sub:sub + SUB_BATCH], n)
            block += np.sum((b @ fhat.data) @ b.transpose(0, 2, 1), axis=0)
        acc.add(block)
    out = acc.value() / taus.size
    tag = FOURIER_REAL if fhat.tag == FOURIER_REAL else GENERAL
    return CoeffGrid(n, out, tag)


def averaging_errors(zbar: CoeffGrid, fhat: CoeffGrid):
    """(field l2 error, operator Hilbert-Schmidt error) of an average."""
    l2 = float(np.linalg.norm(zbar.data - fhat.data))
    hs = float(np.linalg.norm(s_map(zbar).data - s_map(fhat).data))
    return l2, hs
