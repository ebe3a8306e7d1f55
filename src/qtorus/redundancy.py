"""Broadband averaging over zeta-zero ordinates.

A smooth field re-encoded through the slowly-decaying bases D(sigma, tau)
is recovered by averaging over many ordinates tau_n: the corrections ride
on averages M(x) of exp(-i tau_n x) phases, which cancel as the table
grows.  Ordinates are ingested from text tables, never computed here:
load_zero_table only parses a table, line by line, and ZeroTable is the
one check of ordinate values.

Two implementations of the 2D average are kept deliberately separate:
broadband_average_2d applies averaged phase factors divisor pair by
divisor pair, while broadband_average_2d_per_zero averages the per-zero
inverse D-transforms B(tau) fhat B(tau)^T.  They must agree; tests hold
them to 1e-10.  Both read the divisor layout of the window operator from
dirichlet._window_terms; the terms with mu(d) != 0 are those of B.  Both
tag their grids through dirichlet._window_image, as d_transform_2d does.

Both routes sum in fixed blocks of BLOCK ordinates (phases by pairwise
np.sum within a block, per-zero grids SUB_BATCH ordinates per stacked
matrix product), and _block_folds Neumaier-folds the block sums in
ascending order, the partial block below a count last.  A sum over the
first c ordinates therefore depends on c alone, not on which other
counts or arguments share the pass, and one pass over the table serves
every count.  Only distinct arguments x > 0 are evaluated: M(-x) =
conj(M(x)) and M(0) = 1 exactly.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dirichlet import _require_sigma, _window_image, _window_terms, d_matrix, moebius_inverse_rows
from .errors import DimensionError, DomainError, EmptyRangeError, FormatError
from .grids import CoeffGrid
from .spectral import s_map
from .summation import KahanAccumulator

BLOCK = 256  # ordinates per pairwise block of a phase average
SUB_BATCH = 8  # ordinates per stacked matrix product of the per-zero route


@dataclass(eq=False)
class ZeroTable:
    """Zero ordinates, finite, positive and strictly increasing.  The one check
    of their values: it names the first bad ordinate by position and value."""

    ordinates: np.ndarray

    def __post_init__(self):
        arr = np.array(self.ordinates, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise FormatError("zero table needs at least one ordinate")
        ok = np.isfinite(arr) & (arr > 0)
        ok[1:] &= arr[1:] > arr[:-1]
        if not ok.all():
            i = int(np.argmin(ok))
            tau = float(arr[i])
            rule = ("finite" if not math.isfinite(tau) else "positive" if tau <= 0
                    else "strictly increasing (ordinate %d is %r)" % (i, float(arr[i - 1])))
            raise FormatError("ordinate %d is %r; ordinates must be %s" % (i + 1, tau, rule))
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
    """Parse an ordinate table: one decimal per line, '#' comments.

    Lines are read one at a time and only parsed; ZeroTable checks the values.
    """
    opened = nullcontext(source) if hasattr(source, "read") else open(source, encoding="utf-8")
    vals = []
    try:
        with opened as lines:
            for lineno, raw in enumerate(lines, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    if not line.isascii() or "_" in line:  # float() takes "1_4.5" and "٢١" too
                        raise ValueError(line)
                    vals.append(float(line))
                except ValueError:
                    raise FormatError("line %d: not a decimal ordinate: %r" % (lineno, line))
    except UnicodeDecodeError as exc:
        raise FormatError("zero table is not UTF-8 text: %s" % exc)
    return ZeroTable(np.array(vals))


def _block_sum(taus: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum over one block of exp(-i tau x): pairwise np.sum along the contiguous tau axis."""
    arg = np.multiply.outer(xs, taus)
    out = np.empty(xs.shape, dtype=np.complex128)
    out.imag = -np.sum(np.sin(arg, out=arg), axis=1)
    np.multiply.outer(xs, taus, out=arg)  # one (K, BLOCK) buffer serves both passes
    out.real = np.sum(np.cos(arg, out=arg), axis=1)
    return out


def _block_folds(counts, shape, block_sum) -> dict:
    """{c: sum over ordinates [0, c)} for every c, in one pass over fixed blocks.

    block_sum(start, stop) sums ordinates [start, stop).  The full blocks
    of BLOCK ordinates below c are Neumaier-folded in ascending order and
    the partial block [BLOCK * (c // BLOCK), c) is folded last, on a copy,
    so each sum depends on c alone.
    """
    acc = KahanAccumulator(shape)
    folded = 0
    sums = {}
    for c in sorted(set(counts)):
        full = c // BLOCK
        for b in range(folded, full):
            acc.add(block_sum(b * BLOCK, (b + 1) * BLOCK))
        folded = full
        if c % BLOCK:
            part = acc.copy()
            part.add(block_sum(full * BLOCK, c))
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
    xl = ax[live]
    sums = _block_folds(counts, xl.shape, lambda start, stop: _block_sum(taus[start:stop], xl))
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


def _inverse_terms(n: int):
    """The window operator's terms with mu(d) != 0: the divisor expansion of B = D^-1."""
    terms = _window_terms(n)
    live = terms[4] != 0
    return [a[live] for a in terms]


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
    pos, src, dd, sgn, mu = _inverse_terms((fhat.size - 1) // 2)
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
    num/den = d^sgn(k) r^sgn(l).  Terms are outer products of the one-axis
    expansion of B, so they run over k, d, l, r in that nesting order and
    each output sums ascending in d, then r.
    """
    pos, src, dd, sgn, mus = _inverse_terms(n)
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
    grids = []
    for m_c in _phase_means(zeros.ordinates, xs, counts):
        terms = m_c[key]
        terms *= coef
        terms *= f
        flat = _sum_by_index(out, terms, fhat.data.size)
        grids.append(_window_image(fhat, flat.reshape(fhat.data.shape)))
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

    def block_sum(start, stop):
        rows = moebius_inverse_rows(sigma, taus[start:stop], n)
        block = np.zeros(fhat.data.shape, dtype=np.complex128)
        for sub in range(0, rows.shape[0], SUB_BATCH):
            b = d_matrix(rows[sub:sub + SUB_BATCH], n)
            block += np.sum((b @ fhat.data) @ b.transpose(0, 2, 1), axis=0)
        return block

    out = _block_folds([taus.size], fhat.data.shape, block_sum)[taus.size] / taus.size
    return _window_image(fhat, out)


def averaging_errors(zbar: CoeffGrid, fhat: CoeffGrid):
    """(field l2 error, operator Hilbert-Schmidt error) of an average."""
    l2 = float(np.linalg.norm(zbar.data - fhat.data))
    hs = float(np.linalg.norm(s_map(zbar).data - s_map(fhat).data))
    return l2, hs
