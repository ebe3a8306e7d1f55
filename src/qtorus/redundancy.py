"""Broadband averaging over zeta-zero ordinates.

A smooth field re-encoded through the slowly-decaying bases D(sigma, tau)
is recovered by averaging over many ordinates tau_n: the corrections ride
on averages M(x) of exp(-i tau_n x) phases, which cancel as the table
grows.  Ordinates are ingested from text tables, never computed here:
load_zero_table only parses a table, and ZeroTable is the one check of
ordinate values.  The parse has two paths with one result, as the grid
JSON reader has.  A clean table (leading '#' lines that end at a \\n and
hold no \\r, then one JSON number per line and no line end but \\n, as
the shipped tables and scripts/generate_zero_table.py write) is read by
orjson a piece at a time, each piece's lines joined by one replace of \\n
by a comma and its list of numbers made float64 in one np.fromiter pass
(gridio._json_floats).  Any other table (blank lines, \\r, spaces, a
'#' line among the data, a number orjson does not take) is read whole,
line by line, which names the first bad line.

Two implementations of the 2D average are kept deliberately separate:
broadband_average_2d applies averaged phase factors divisor pair by
divisor pair, while broadband_average_2d_per_zero averages the per-zero
inverse D-transforms B(tau) fhat B(tau)^T.  They must agree; tests hold
them to 1e-10.  Both read the divisor layout of the window operator from
dirichlet._window_terms; the terms with mu(d) != 0 are those of B.  Both
tag their grids through dirichlet._window_image, as d_transform_2d does.

Both routes sum in fixed blocks of BLOCK ordinates, and _block_folds
Neumaier-folds the block sums in ascending order, the partial block
below a count last.  A sum over the first c ordinates therefore depends
on c alone, not on which other counts or arguments share the pass, and
one pass over the table serves every count.

phase_average and c_d take arbitrary real x and sum cos and sin by
pairwise np.sum within a block; only distinct x > 0 are evaluated:
M(-x) = conj(M(x)) and M(0) = 1 exactly.  c_d takes an integer d >= 2 and
checks sigma as the averaging routes do.  broadband_average_1d runs on
one axis of the direct route's plan with M(-+log d) from phase_average:
w sin and cos per ordinate, not the Gram block's (w, 2w) product.

The per-zero route never forms B(tau) whole: B(tau) is block-diagonal over
the cones, index 0 maps to itself and the negative-cone block N(tau) is
the positive-cone block P(tau) conjugated with its rows and columns
reversed.  So B = R conj(B) R, R the reversal k -> -k, and the rows
k < 0 of the image B f B^T are the rows k > 0 of the image of
f' = conj(R f R), reversed and conjugated.  Up to SUB_BATCH ordinates at
a time (fewer at large n: W stays within _SUB_BATCH_BYTES) it scatters
P(tau) from the closed-form rows, forms W = G B^T by column blocks for
one operand G (the rows k > 0 of f and f', then the 0 row of f) and
takes P times the rows of W from f and from f' in one product: three
stacked n x n products, half the work of the dense (2n+1)^2 products.
It computes every ordinate's image, so it shares no averaged phase with
the direct route.

The direct route needs only M(+-log d +- log r) for squarefree d, r <= n:
the averages of b_d b_r and of b_d conj(b_r), b_d = d^-i tau.  d -> b_d
is completely multiplicative (the Euler product of zeta), so per block
it takes sin and cos of the prime logs only, forms every other row b_d
as a smaller row times a prime row (_phase_rows), and sums all the
products at once as the Gram matrices [S, O] = P [P^T, P^H] of the
rows P (_gram_means).  A 2D term pairs two one-axis terms (_direct_plan),
so zbar = U (G * F) U^T: G gathers the Gram block, F the weighted field,
and U sums each index's terms, a chunk of output rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import orjson

from .dirichlet import (_moebius_rows, _moebius_terms, _require_sigma, _window_image,
                        _window_terms)
from .errors import (EmptyRangeError, FormatError, _require_finite, _require_finite_complex,
                     _require_integer)
from .grids import CoeffGrid, _window_band_limit
from .gridio import _json_floats
from .spectral import s_map
from .summation import KahanAccumulator

BLOCK = 256  # ordinates per block sum of a phase average
SUB_BATCH = 16  # most ordinates per stacked matrix product of the per-zero route
_SUB_BATCH_BYTES = 800 << 10  # most bytes of W per sub-batch: 12 ordinates at n = 32
_CHUNK_ENTRIES = 1 << 18  # 2D terms per chunk of output rows of the direct route


@dataclass(eq=False)
class ZeroTable:
    """Zero ordinates, real, finite, positive and strictly increasing.  The one check
    of their values: it names the first bad ordinate by position and value."""

    ordinates: np.ndarray

    def __post_init__(self):
        arr = np.array(self.ordinates)
        if arr.ndim != 1 or arr.size == 0:
            raise FormatError("zero table needs at least one ordinate")
        # refused whole: a complex dtype, 3+0j included, or one of str, bytes, bool or object
        if arr.dtype.kind not in "iuf":
            c = arr.dtype.kind == "c"
            i = int(np.argmax(arr.imag != 0)) if c else 0
            raise FormatError("ordinate %d is %r; ordinates must be %s"
                              % (i + 1, arr.tolist()[i], "real" if c else "numbers"))
        arr = arr.astype(np.float64, copy=False)
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
        """N(T): how many ordinates are <= T, for a finite T."""
        _require_finite(t=t)
        return int(np.searchsorted(self.ordinates, t, side="right"))

    def upto(self, t: float) -> np.ndarray:
        taus = self.ordinates[: self.count_below(t)]
        if taus.size == 0:
            raise EmptyRangeError("no ordinates at or below T=%g" % t)
        return taus

    def t_covering(self, count: int) -> float:
        """Smallest T whose window holds exactly `count` leading ordinates."""
        _require_integer(count=count)
        if count < 1 or count > self.count:
            raise EmptyRangeError(
                "table holds %d ordinates, cannot cover %d" % (self.count, count)
            )
        return float(self.ordinates[count - 1])


_CAST_BYTES = 1 << 13  # table bytes per orjson parse: bounds the objects alive at once
_CLEAN_BYTES = b"0123456789.eE+-\n"  # the bytes of a piece that orjson reads


def _ascii_ordinates(data: bytes) -> np.ndarray:
    """The data lines of a clean table as float64, each read as float()
    reads it; ValueError for any other table.  The leading '#' lines are
    skipped first, each only when it ends at a \\n and holds no \\r: a \\r
    ends a line too, so a line after it may be data.  The rest is parsed
    _CAST_BYTES at a time, cut after a \\n so that no line is split.  A
    piece's body (the piece without its final \\n) must hold only number
    bytes and \\n, or ValueError ('#', \\r, spaces, tabs, '_', non-ASCII).
    One replace of \\n by a comma joins its lines into one JSON array for
    orjson, which refuses a blank line (an empty element; a final blank line
    cut off as a piece of its own is the empty array) and a number it does
    not take ("+1", ".5", "1.", "01", "1e999") with a JSONDecodeError, a
    ValueError.  gridio._json_floats makes the list float64 in one
    np.fromiter pass.  A header comment may hold any UTF-8: no byte of a
    multi-byte character is \\n, \\r or '#'.

    A JSON number reads as float() reads it, but for "-0", which orjson
    reads as the int 0: a zero ordinate is refused here, so that the
    per-line parse keeps its sign for ZeroTable's refusal.
    """
    parts, start = [np.empty(0)], 0
    while data.startswith(b"#", start):  # the header
        stop = data.find(b"\n", start) + 1
        if not stop or data.find(b"\r", start, stop) >= 0:
            break
        start = stop
    while start < len(data):
        stop = data.find(b"\n", start + _CAST_BYTES) + 1 or len(data)
        piece, start = data[start:stop], stop
        body = piece[:-1] if piece[-1] == 0x0A else piece  # '\n'
        if body.translate(None, _CLEAN_BYTES):
            raise ValueError("not a clean piece")
        values = orjson.loads(b"[%b]" % body.replace(b"\n", b","))
        del piece, body  # before the float64 copy exists: it keeps the peak low
        part = _json_floats(values)
        if not part.all():
            raise ValueError("zero ordinate")
        parts.append(part)
    return np.concatenate(parts)


def _read_table(source) -> bytes:
    """The whole table as bytes, checked as UTF-8."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    try:
        if isinstance(data, str):
            return data.encode("utf-8")
        if not data.isascii():
            data.decode("utf-8")
    except UnicodeError as exc:
        raise FormatError("zero table is not UTF-8 text: %s" % exc)
    return data


def _table_ordinates(data: bytes) -> np.ndarray:
    """The ordinates of a table's data lines, by orjson when the table is
    clean (_ascii_ordinates); otherwise line by line, which takes only ASCII
    decimal ordinates (float() takes "1_4.5" and "٢١" too) and names the
    first line that is not one."""
    try:
        return _ascii_ordinates(data)
    except ValueError:
        pass
    vals = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.decode("utf-8").strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not line.isascii() or "_" in line:
                raise ValueError(line)
            vals.append(float(line))
        except ValueError:
            raise FormatError("line %d: not a decimal ordinate: %r" % (lineno, line))
    return np.array(vals)


def load_zero_table(source) -> ZeroTable:
    """Parse an ordinate table: one decimal per line, '#' comments.

    source is a path or an open text or binary handle.  The table is read
    whole, checked as UTF-8 once and split at \\n, \\r\\n and \\r.  A clean
    table (a '#' header, then one JSON number per line, split at \\n) is parsed
    by orjson, a piece of the table at a time, as JSON arrays of numbers,
    which read each line as float() does; any other table, or one with a
    zero, is parsed line by line, blank and '#' lines skipped, to name the
    first bad line.  The loader only parses; ZeroTable checks the values.
    The table's bytes are released before ZeroTable copies the values.
    """
    return ZeroTable(_table_ordinates(_read_table(source)))


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


def phase_average(taus: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """M(x) = (1/n) sum over tau of exp(-i tau x), in fixed blocks, compensated.

    Only the distinct |x| > 0 are evaluated; M(-x) = conj(M(x)) and
    M(0) = 1 exactly.  No ordinates, or a complex or non-finite ordinate or x, is
    refused.
    """
    taus, xs = np.asarray(taus), np.asarray(xs)  # cast once checked: a complex one is refused
    if taus.size == 0:
        raise EmptyRangeError("a phase average needs at least one ordinate")
    _require_finite(taus=taus, xs=xs)
    taus, xs = taus.astype(np.float64, copy=False), xs.astype(np.float64, copy=False)
    ax, inv = np.unique(np.abs(xs).ravel(), return_inverse=True)
    live = ax != 0
    xl = ax[live]
    c = taus.size
    m = np.ones(ax.shape, dtype=np.complex128)
    m[live] = _block_folds([c], xl.shape, lambda a, b: _block_sum(taus[a:b], xl))[c] / c
    m = m[inv].reshape(xs.shape)
    return np.where(xs < 0, np.conj(m), m)


def c_d(d: int, sigma: float, zeros: ZeroTable, t: float) -> float:
    """Modulus of the zero-averaged coefficient at d: |avg d^-(sigma+i tau)|."""
    _require_integer(2, d=d)
    _require_sigma(sigma)
    taus = zeros.upto(t)
    m = phase_average(taus, np.array([math.log(d)]))
    return float(d ** (-sigma) * abs(m[0]))


def broadband_average_1d(fhat: np.ndarray, sigma: float, zeros: ZeroTable,
                         t: float) -> np.ndarray:
    """Average of the 1D re-encodings; index 0 passes through exactly.

    z_k = fhat_k + sum over d | k, d > 1 of
          mu(d) * avg_n d^-(sigma + i tau_n) * fhat_{k/d}
    with conjugated averages on the negative cone.
    """
    _require_sigma(sigma)
    fhat = np.asarray(fhat, dtype=np.complex128)
    n = _window_band_limit("fhat", fhat.shape)
    _require_finite_complex(fhat=fhat)
    taus = zeros.upto(t)
    bounds, src, mu, d = _direct_plan(n)[:4]
    logs = np.log(d)
    logs[:bounds[n]] *= -1  # the k < 0 terms come first; M(0) = 1 at d = 1
    coef = mu * d.astype(np.float64) ** (-float(sigma))
    return np.add.reduceat(phase_average(taus, logs) * coef * fhat[src], bounds[:-1])


def _phase_rows(dd: np.ndarray):
    """The phase rows b_d = d^-i tau of the direct route: (ints, parent, prime, levels).

    ints are the distinct d of dd, the squarefree d <= n.  Row 0 is d = 1
    and rows 1..P the primes.  Every other row d is row parent = d / p
    times row prime = p, p the smallest prime factor of d; the set of
    squarefree d <= n holds both.  Rows ascend in the number of prime
    factors, then in d, and levels holds the row range of each count >= 2,
    so a level is filled after its parents.
    """
    ds = np.flatnonzero(np.bincount(dd)).tolist()  # np.unique(dd) would import numpy.ma
    spf, omega = {1: 1}, {1: 0}
    for d in ds[1:]:
        spf[d] = next(p for p in ds[1:] if d % p == 0)  # the smallest divisor > 1 is prime
        omega[d] = omega[d // spf[d]] + 1
    ints = sorted(ds, key=lambda d: (omega[d], d))
    row = {d: i for i, d in enumerate(ints)}
    omegas = np.array([omega[d] for d in ints])
    bounds = np.searchsorted(omegas, np.arange(2, omegas.max() + 2)).tolist()
    rows = (np.array(ints), np.array([row[d // spf[d]] for d in ints]),
            np.array([row[spf[d]] for d in ints]), tuple(zip(bounds[:-1], bounds[1:])))
    for a in rows[:3]:
        a.setflags(write=False)
    return rows


def _gram_means(rows, taus: np.ndarray, counts) -> list:
    """The Gram block G = [[S, O], [conj O, conj S]] of the phase rows,
    S = avg b_d b_r and O = avg b_d conj(b_r) over the first c ordinates,
    for each c in counts; summed in _block_folds' blocks.

    Per block, sin and cos are taken of the prime logs only, each level
    of rows is one gather of parent rows times the gathered prime rows,
    and the block sums of S and O side by side are one (w, 2w) matrix
    product of the w rows P with [P^T, P^H].  The rows live in one buffer
    for the whole call.
    """
    ints, parent, prime, levels = rows
    w = ints.size
    primes = slice(1, levels[0][0] if levels else w)
    logp = np.log(ints[primes].astype(np.float64))
    buf = np.empty((w, BLOCK), dtype=np.complex128)
    buf[0] = 1.0

    def block_sum(start, stop):
        phase = buf[:, :stop - start]
        arg = np.multiply.outer(logp, taus[start:stop])
        phase[primes].real = np.cos(arg)
        phase[primes].imag = -np.sin(arg, out=arg)
        for a, b in levels:
            np.multiply(phase[parent[a:b]], phase[prime[a:b]], out=phase[a:b])
        return phase @ np.concatenate([phase.T, phase.T.conj()], axis=1)

    sums = _block_folds(counts, (w, 2 * w), block_sum)
    means = [sums[c] / c for c in counts]  # [S, O]; its conj rolled by w is [conj O, conj S]
    return [np.concatenate([m, np.roll(m.conj(), w, axis=1)]) for m in means]


@lru_cache(maxsize=16)
def _direct_plan(n: int):
    """One axis of the direct route at band limit n: (bounds, src, mu, d, g, rows).

    Term j is a divisor d[j] of an index k with mu[j] = mu(d) != 0 (the
    expansion of B = D^-1), src[j] is the index of k / d and g[j] =
    w [k < 0] + row(d) its row in the (2w, 2w) Gram block G over the w
    phase rows.  The terms of index i run from bounds[i] to bounds[i + 1],
    ascending in d; the k < 0 terms come first.  Term pairs make the 2D
    route zbar = U (G[g][:, g] * F) U^T, F[j, i] = c[j] c[i]
    fhat[src[j], src[i]] with c = mu d^-sigma, where U sums an index's
    terms by np.add.reduceat: over r (the terms of l), then over d.
    Every k has its d = 1 term, so no range is empty; for an empty range
    reduceat would return its first entry, not 0.
    """
    terms = _window_terms(n)
    pos, src, dd, sgn, mu = (a[terms[4] != 0] for a in terms[:5])
    rows = _phase_rows(dd)
    row_of = np.zeros(int(dd.max()) + 1, dtype=np.intp)
    row_of[rows[0]] = np.arange(rows[0].size)
    plan = (np.searchsorted(pos, np.arange(2 * n + 2)), src, mu, dd,
            rows[0].size * (sgn < 0) + row_of[dd])
    for a in plan:
        a.setflags(write=False)
    return plan + (rows,)


def broadband_average_2d_counts(fhat: CoeffGrid, sigma: float, zeros: ZeroTable,
                                counts) -> list:
    """Direct route over the first c ordinates, for each c in counts.

    zbar[k,l] = sum over d | k, r | l of
        mu(d) mu(r) (d r)^-sigma * M(sgn(k) log d + sgn(l) log r) * fhat[k/d, l/r]
    where M is the zero-averaged phase.  All counts share one pass over
    the ordinates; the grid at c is the same whichever other counts are
    requested, and however the output rows are chunked.  The (0,0) entry
    is exact: only d = r = 1 reaches it, and the row of d = 1 is exactly
    1, so its mean is M(0) = 1.
    """
    _require_sigma(sigma)
    for c in counts:
        zeros.t_covering(c)
    bounds, src, mu, d, g, rows = _direct_plan(fhat.n)
    coef = mu * d.astype(np.float64) ** (-float(sigma))
    grams = _gram_means(rows, zeros.ordinates, counts)
    zbars = [np.empty(fhat.data.shape, dtype=np.complex128) for _ in counts]
    a = 0
    while a < bounds.size - 1:  # output rows [a, b): within _CHUNK_ENTRIES terms, or one row
        b = max(a + 1, int(np.searchsorted(bounds, bounds[a] + _CHUNK_ENTRIES // src.size,
                                           "right")) - 1)
        terms = slice(bounds[a], bounds[b])
        f = np.take(fhat.data[src[terms]], src, axis=1)  # C order, unlike [...][:, src]
        f *= np.multiply.outer(coef[terms], coef)
        gf = np.empty_like(f)
        for gram, zbar in zip(grams, zbars):
            np.take(gram[g[terms]], g, axis=1, out=gf, mode="clip")  # "raise" would buffer
            gf *= f
            zbar[a:b] = np.add.reduceat(np.add.reduceat(gf, bounds[:-1], axis=1),
                                        bounds[a:b] - bounds[a], axis=0)
        del f, gf  # before the next chunk's arrays exist
        a = b
    return [_window_image(fhat, zbar) for zbar in zbars]


def broadband_average_2d(fhat: CoeffGrid, sigma: float, zeros: ZeroTable,
                         t: float) -> CoeffGrid:
    """Direct route over the ordinates at or below t; see broadband_average_2d_counts."""
    return broadband_average_2d_counts(fhat, sigma, zeros, [zeros.count_below(t)])[0]


def broadband_average_2d_per_zero(fhat: CoeffGrid, sigma: float, zeros: ZeroTable,
                                  t: float) -> CoeffGrid:
    """Oracle route: average the per-ordinate inverse D-transforms B(tau) fhat B(tau)^T.

    Each ordinate's inverse operator B(tau) comes from the closed form
    b_d = mu(d) d^-sigma e^{-i tau log d}.  It is block-diagonal over the
    cones: index 0 maps to itself, the positive cone by the n x n block
    P(tau), P[k-1, j-1] = b_{k/j} for j | k, scattered from the closed-form
    rows at the sgn > 0 terms of the window operator, and the negative cone
    by N(tau), which is conj(P(tau)) with rows and columns reversed, so
    that B = R conj(B) R for the reversal R.  The image's rows k < 0 are
    then those of R conj(B f' B^T) R, f' = conj(R f R), and only rows
    k > 0 are formed: the operand G holds the rows k > 0 of fhat and of f',
    interleaved, then fhat's 0 row.  Per sub-batch of ordinates the route
    forms W = G B^T by column blocks (G[:, -] N^T, the 0 column,
    G[:, +] P^T) and sums over the ordinates P times the rows k > 0 of
    fhat's and f''s W side by side, as one stacked product, and the 0 row;
    the sums go into fixed blocks of BLOCK ordinates, and the block sums
    are Neumaier-folded in ascending order.
    """
    _require_sigma(sigma)
    n = fhat.n
    taus = zeros.upto(t)
    f = fhat.data
    m = 2 * n + 1
    row, col, d, sgn = _window_terms(n)[:4]
    cone = sgn > 0
    at, dc = (row[cone] - n - 1) * n + col[cone] - n - 1, d[cone]  # P[at] = b[dc], flat
    neg, pos = slice(0, n), slice(n + 1, None)
    # the rows k > 0 of f and of f' = conj(R f R), interleaved, then f's 0 row
    g = np.empty_like(f)
    g[0:2 * n:2] = f[pos]
    g[1:2 * n:2] = np.conj(f[n - 1::-1, ::-1])
    g[2 * n] = f[n]
    # buffers of `batch` ordinates, reused: P's scatter leaves its zeros in place
    batch = min(SUB_BATCH, max(1, _SUB_BATCH_BYTES // (16 * m * m)))
    pbuf = np.zeros((batch, n * n), dtype=np.complex128)
    qbuf = np.empty_like(pbuf)
    wbuf = np.empty((batch, m, m), dtype=np.complex128)
    wbuf[:, :, n] = g[:, n]  # W's 0 column: only the cone columns change per ordinate
    terms = _moebius_terms(sigma, n)  # mu and k^-sigma, once per call

    def block_sum(start, stop):
        rows = _moebius_rows(terms, taus[start:stop])
        block = np.zeros(f.shape, dtype=np.complex128)
        top = np.zeros((n, 2 * m), dtype=np.complex128)  # rows k > 0 of f's and f''s images
        for sub in range(0, rows.shape[0], batch):
            b = rows[sub:sub + batch]
            s = b.shape[0]
            pbuf[:s, at] = b[:, dc]
            np.conj(pbuf[:s, ::-1], out=qbuf[:s])  # N: P's rows and columns reversed
            p, q, w = pbuf[:s].reshape(s, n, n), qbuf[:s].reshape(s, n, n), wbuf[:s]
            np.matmul(g[:, neg], q.transpose(0, 2, 1), out=w[:, :, neg])
            np.matmul(g[:, pos], p.transpose(0, 2, 1), out=w[:, :, pos])
            top += np.sum(p @ w[:, :2 * n].reshape(s, n, 2 * m), axis=0)
            block[n] += np.sum(w[:, 2 * n], axis=0)
        block[pos] = top[:, :m]
        block[neg] = np.conj(top[::-1, :m - 1:-1])  # B f B^T = R conj(B f' B^T) R
        return block

    out = _block_folds([taus.size], f.shape, block_sum)[taus.size] / taus.size
    return _window_image(fhat, out)


def _averaging_errors(zbars, fhat: CoeffGrid) -> list:
    """averaging_errors of each average in zbars against one fhat, whose
    S-map is taken once: after the first zbar's, as averaging_errors takes
    them, so that a refusal names the same grid."""
    errors, target = [], None
    for zbar in zbars:
        image = s_map(zbar).data
        if target is None:
            target = s_map(fhat).data
        errors.append((float(np.linalg.norm(zbar.data - fhat.data)),
                       float(np.linalg.norm(image - target))))
    return errors


def averaging_errors(zbar: CoeffGrid, fhat: CoeffGrid):
    """(field l2 error, operator Hilbert-Schmidt error) of an average."""
    return _averaging_errors([zbar], fhat)[0]
