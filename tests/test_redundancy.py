"""Zero tables, phase averages, and the broadband recovery routes.

The 100-ordinate fixture under data/ is enough for every functional
check; trend assertions against the large table live in the acceptance
module.
"""

import gc
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qtorus import (
    FOURIER_REAL,
    GENERAL,
    CoeffGrid,
    KahanAccumulator,
    ZeroTable,
    ZetaParams,
    apply_D_inv,
    averaging_errors,
    broadband_average_1d,
    broadband_average_2d,
    broadband_average_2d_counts,
    broadband_average_2d_per_zero,
    c_d,
    d_transform_2d,
    fourier_real_deviation,
    load_zero_table,
    phase_average,
    single_entry,
    write_grid,
)
from qtorus import dirichlet, redundancy
from qtorus.cli import run
from qtorus.errors import DimensionError, DomainError, EmptyRangeError, FormatError

from conftest import DATA
from helpers import (
    LINE_SHAPES,
    random_fourier_real,
    random_general,
    random_hermitian,
    reference_load_zero_table,
    sequential_per_zero_average,
    sequential_phase_average,
    two_part_fold,
)

# arguments of the phase averages the 2D route needs: log d and log(p/q)
PHASE_ARGS = np.log(np.array([2.0, 3.0, 5.0, 6.0, 7.0, 10.0, 1.5, 10.0 / 3.0]))


class TestZeroTable:
    def test_fixture_shape(self, zeros100):
        assert zeros100.count == 100
        assert_allclose(zeros100.ordinates[0], 14.134725141734694, rtol=1e-12)
        assert zeros100.count_below(20.0) == 1
        assert zeros100.count_below(100.0) == 29

    def test_upto_windows(self, zeros100):
        taus = zeros100.upto(30.0)
        assert taus.size == 3
        assert np.all(np.diff(taus) > 0)
        with pytest.raises(EmptyRangeError):
            zeros100.upto(10.0)

    def test_t_covering(self, zeros100):
        t = zeros100.t_covering(5)
        assert zeros100.count_below(t) == 5
        assert t == zeros100.ordinates[4]
        with pytest.raises(EmptyRangeError):
            zeros100.t_covering(101)
        with pytest.raises(EmptyRangeError):
            zeros100.t_covering(0)

    def test_parse_comments_and_blanks(self):
        table = load_zero_table(io.StringIO(
            "# header\n\n14.1347\n  21.0220\n\n# trailing\n25.0109\n"))
        assert table.count == 3

    def test_parse_reports_line_numbers(self):
        with pytest.raises(FormatError, match="line 3"):
            load_zero_table(io.StringIO("# ok\n14.1\nnot-a-number\n"))
        # the whole file is parsed before any value is checked
        with pytest.raises(FormatError, match="line 3: not a decimal ordinate"):
            load_zero_table(io.StringIO("14.1\n-3.0\nabc\n"))

    def test_binary_handle(self):
        table = load_zero_table(io.BytesIO(b"# header\r\n14.1\n\n  21.0\r25.0\n"))
        assert table.ordinates.tolist() == [14.1, 21.0, 25.0]
        with pytest.raises(FormatError, match="line 3: not a decimal ordinate: 'abc'"):
            load_zero_table(io.BytesIO(b"14.1\n21.0\nabc\n"))
        with pytest.raises(FormatError, match="UTF-8"):
            load_zero_table(io.BytesIO(b"14.1\n\xff\n"))

    def test_text_handle_splits_at_lone_carriage_return(self):
        # the table is split as a path is read in text mode, whatever the handle's newline
        assert load_zero_table(io.StringIO("14.1\r21.0\n")).ordinates.tolist() == [14.1, 21.0]
        with pytest.raises(FormatError, match="line 2: not a decimal ordinate: 'x'"):
            load_zero_table(io.StringIO("14.1\rx\n21.0\n"))

    def test_utf8_comments_reach_orjson(self, monkeypatch):
        # only the data lines decide whether orjson parses the table: not the header's bytes
        parse, calls = redundancy._ascii_ordinates, []

        def spy(data):
            calls.append(parse(data))
            return calls[-1]

        monkeypatch.setattr(redundancy, "_ascii_ordinates", spy)
        table = load_zero_table(io.StringIO("# ζ zeros ٢١\n# 1_0 here\n14.1\n21.0\n"))
        assert table.ordinates.tolist() == [14.1, 21.0]
        assert [c.tolist() for c in calls] == [[14.1, 21.0]]

    @pytest.mark.parametrize("name", ["zeta_zeros_100.txt", "zeta_zeros_10k.txt"])
    def test_shipped_tables_match_per_line_loader(self, name):
        want = reference_load_zero_table(DATA / name).ordinates
        assert load_zero_table(DATA / name).ordinates.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cast_bytes", [1, 12, 1 << 13, 1 << 15])
    @pytest.mark.parametrize("name", LINE_SHAPES)
    def test_only_clean_line_shapes_stay_on_orjson(self, monkeypatch, name, cast_bytes):
        # a table with a piece that is not clean is refused by orjson's path and read line
        # by line; a final blank line cut off as a piece of its own is the empty array
        monkeypatch.setattr(redundancy, "_CAST_BYTES", cast_bytes)
        table = LINE_SHAPES[name]
        if name == "no-final-newline" or (name == "newline-only-piece" and cast_bytes <= 12):
            assert redundancy._ascii_ordinates(table).tolist() == [14.1, 21.0, 25.0]
        else:
            with pytest.raises(ValueError):
                redundancy._ascii_ordinates(table)
        assert load_zero_table(io.BytesIO(table)).ordinates.tolist() == [14.1, 21.0, 25.0]

    def test_shipped_tables_stay_on_orjson(self):
        # the '#' header is skipped before the table is cut into pieces, and every piece
        # is clean: a piece that is not would raise here
        for name in ("zeta_zeros_100.txt", "zeta_zeros_10k.txt"):
            want = reference_load_zero_table(DATA / name).ordinates
            assert redundancy._ascii_ordinates((DATA / name).read_bytes()).tobytes() == (
                want.tobytes())

    def test_parse_rejects_disorder(self):
        with pytest.raises(FormatError, match="increasing"):
            load_zero_table(io.StringIO("14.1\n21.0\n21.0\n"))
        with pytest.raises(FormatError, match="positive"):
            load_zero_table(io.StringIO("-3.0\n"))

    def test_parse_rejects_empty(self):
        with pytest.raises(FormatError):
            load_zero_table(io.StringIO("# nothing here\n"))

    def test_constructor_validation(self):
        with pytest.raises(FormatError):
            ZeroTable(np.array([2.0, 1.0]))
        with pytest.raises(FormatError):
            ZeroTable(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("ordinates", [[1.0, np.inf], [np.nan], [1.0, np.nan, 3.0]])
    def test_constructor_rejects_non_finite(self, ordinates):
        with pytest.raises(FormatError, match="finite"):
            ZeroTable(np.array(ordinates))

    @pytest.mark.parametrize("ordinates,message", [
        ([14.1, 21.0, 21.0], "ordinate 3 is 21.0; ordinates must be strictly increasing"),
        ([-3.0], "ordinate 1 is -3.0; ordinates must be positive"),
        ([5.0, 4.0, -1.0], "ordinate 2 is 4.0; ordinates must be strictly increasing"),
        ([1.0, np.nan, 3.0], "ordinate 2 is nan; ordinates must be finite"),
        ([1.0, 2.0, np.inf], "ordinate 3 is inf; ordinates must be finite"),
        ([0.0, 1.0], "ordinate 1 is 0.0; ordinates must be positive"),
    ])
    def test_refusal_names_first_bad_ordinate(self, ordinates, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            ZeroTable(np.array(ordinates))
        # the loader only parses, so the refusal counts ordinates, not file lines
        text = "# header\n\n" + "\n".join(repr(x) for x in ordinates) + "\n"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_zero_table(io.StringIO(text))


def _fold_terms(rng, count, shape):
    """Complex terms with signed zeros, exact cancellations and parts of
    magnitude 1e-300, 1 and 1e300 side by side."""
    terms = []
    for _ in range(count):
        scale = 10.0 ** rng.choice([-300, 0, 300], size=shape + (2,))
        parts = rng.standard_normal(shape + (2,)) * scale
        parts[rng.random(shape + (2,)) < 0.2] = 0.0
        parts[rng.random(shape + (2,)) < 0.2] = -0.0
        term = np.empty(shape, dtype=np.complex128)
        term.real, term.imag = parts[..., 0], parts[..., 1]
        terms.append(term)
        if rng.random() < 0.3:
            terms.append(-terms[rng.integers(len(terms))])
    return terms


class TestCompensatedFold:
    """KahanAccumulator folds re and im as one float view; the two-part fold is its oracle."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5), (2, 4, 4)])
    def test_matches_two_part_fold_bitwise(self, seed, shape):
        terms = _fold_terms(np.random.default_rng(seed), 40, shape)
        acc = KahanAccumulator(shape)
        for term in terms:
            acc.add(term)
        total, comp = two_part_fold(shape, terms)
        assert acc.total.tobytes() == total.tobytes()
        assert acc.comp.tobytes() == comp.tobytes()
        assert acc.value().tobytes() == (total + comp).tobytes()

    def test_strided_and_broadcast_terms(self, rng):
        wide = _fold_terms(rng, 6, (4, 6))
        terms = [w[:, ::2] for w in wide] + [complex(-0.0, 1e300), np.float64(-1e-300)]
        acc = KahanAccumulator((4, 3))
        for term in terms:
            acc.add(term)
        total, comp = two_part_fold((4, 3), terms)
        assert acc.total.tobytes() == total.tobytes()
        assert acc.comp.tobytes() == comp.tobytes()


class TestPhaseAverage:
    def test_zero_argument_is_exactly_one(self, zeros100):
        m = phase_average(zeros100.ordinates, np.array([0.0]))
        assert m[0] == 1.0 + 0.0j

    def test_single_ordinate(self):
        taus = np.array([5.0])
        xs = np.array([0.3, 1.7])
        m = phase_average(taus, xs)
        assert_allclose(m, np.exp(-5j * xs), rtol=1e-15)

    def test_antipodal_pair_cancels(self):
        # two phases half a turn apart at x = ln 2
        x = math.log(2.0)
        taus = np.array([1.0, 1.0 + math.pi / x])
        m = phase_average(taus, np.array([x]))
        assert abs(m[0]) < 1e-15

    @pytest.mark.parametrize("xs", [[0.0], [0.0, 0.7]], ids=["zero", "zero-and-nonzero"])
    def test_no_ordinates_refused(self, xs):
        # a mean over no ordinates would be 0 / 0
        with pytest.raises(EmptyRangeError, match="at least one ordinate"):
            phase_average(np.array([]), np.array(xs))


class TestBlockAveraging:
    @pytest.mark.parametrize("count", [100, 256, 257, 1000])
    def test_prefix_independent_of_other_counts(self, zeros10k, count):
        # _gram_means is the one caller of _block_folds with several counts:
        # requested in any order, with repeats, each count's block is bitwise
        # that of a pass over its own ordinates alone
        rows = redundancy._direct_plan(16)[5]
        taus = zeros10k.ordinates
        shared = redundancy._gram_means(rows, taus, [10000, count, 10, count, 100])
        alone = redundancy._gram_means(rows, taus[:count], [count])[0]
        assert alone.tobytes() == shared[1].tobytes() == shared[3].tobytes()

    def test_zero_exact_and_negation_conjugates(self, zeros10k):
        taus = zeros10k.ordinates[:1000]
        assert phase_average(taus, [0.0])[0] == 1
        m = phase_average(taus, np.concatenate([PHASE_ARGS, -PHASE_ARGS, [0.0]]))
        k = PHASE_ARGS.size
        assert np.array_equal(m[k:2 * k], np.conj(m[:k]))
        assert np.array_equal(phase_average(taus, -PHASE_ARGS),
                              np.conj(phase_average(taus, PHASE_ARGS)))
        assert m[-1] == 1

    @pytest.mark.parametrize("count", [10, 100, 1000, 10000])
    def test_matches_sequential_fold(self, zeros10k, count):
        taus = zeros10k.ordinates[:count]
        ref = sequential_phase_average(taus, PHASE_ARGS)
        assert np.max(np.abs(phase_average(taus, PHASE_ARGS) - ref)) <= 1e-15

    def test_counts_match_single_count_route(self, zeros100, rng):
        f = random_fourier_real(6, rng)
        counts = [100, 10, 60, 10]
        grids = broadband_average_2d_counts(f, 3.0, zeros100, counts)
        assert len(grids) == len(counts)
        for c, g in zip(counts, grids):
            one = broadband_average_2d(f, 3.0, zeros100, zeros100.t_covering(c))
            assert np.array_equal(g.data, one.data)
            assert g.tag == FOURIER_REAL

    @pytest.mark.parametrize("n", [0, 1])
    def test_smallest_band_limits_pass_through(self, zeros100, rng, n):
        # no divisor d > 1 exists, so averaging changes nothing
        f = random_fourier_real(n, rng)
        t = zeros100.t_covering(30)
        (z,) = broadband_average_2d_counts(f, 3.0, zeros100, [30])
        assert np.array_equal(z.data, f.data)
        zo = broadband_average_2d_per_zero(f, 3.0, zeros100, t)
        assert np.max(np.abs(zo.data - f.data)) < 1e-15 * f.scale()

    def test_plan_built_once_per_band_limit(self, zeros100, rng):
        redundancy._direct_plan.cache_clear()
        f3, f4 = random_fourier_real(3, rng), random_fourier_real(4, rng)
        broadband_average_2d_counts(f3, 3.0, zeros100, [10, 100])
        broadband_average_2d_counts(f3, 2.0, zeros100, [50])
        broadband_average_2d(f3, 4.0, zeros100, 100.0)
        assert redundancy._direct_plan.cache_info().misses == 1
        broadband_average_2d_counts(f4, 3.0, zeros100, [10])
        assert redundancy._direct_plan.cache_info().misses == 2

    def test_counts_outside_table_rejected(self, zeros100, rng):
        f = random_fourier_real(2, rng)
        for bad in ([10, 101], [0]):
            with pytest.raises(EmptyRangeError):
                broadband_average_2d_counts(f, 3.0, zeros100, bad)
        for bad in ([1.0], [2.5], [10, 20.0]):
            with pytest.raises(DomainError, match="count must be an integer"):
                broadband_average_2d_counts(f, 3.0, zeros100, bad)
        with pytest.raises(EmptyRangeError):
            broadband_average_2d(f, 3.0, zeros100, 10.0)


def _gram_logs(ints):
    """log d + log r, then log d - log r, over every pair of phase rows d, r:
    the arguments of S and O as the sin/cos route takes them."""
    logs = np.log(ints.astype(np.float64))
    return np.concatenate([np.add.outer(logs, logs).ravel(),
                           np.subtract.outer(logs, logs).ravel()])


def _squarefree(n):
    return [d for d in range(1, n + 1) if all(d % (p * p) for p in range(2, d + 1))]


class TestEulerRoute:
    """The direct route's Gram means from prime phases against sin and cos of each log."""

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 32])
    def test_means_match_sin_cos_route(self, zeros10k, n):
        # both routes err by ~tau * (rounding of the log) per term; against
        # mpmath over 10k ordinates the Gram means were within 5.7e-14 and
        # the sin/cos means within 2.4e-13 at n <= 64, so 5e-13 bounds the gap
        rows = redundancy._direct_plan(n)[5]
        w = rows[0].size
        counts = [10, 100, 1000, 10000]
        gram = redundancy._gram_means(rows, zeros10k.ordinates, counts)
        plain = [phase_average(zeros10k.ordinates[:c], _gram_logs(rows[0])) for c in counts]
        for g, p in zip(gram, plain):
            assert g.shape == (2 * w, 2 * w)
            s, o = g[:w, :w], g[:w, w:]
            assert np.max(np.abs(np.concatenate([s.ravel(), o.ravel()]) - p)) <= 5e-13
            # the block is [[S, O], [conj O, conj S]], its bottom half bitwise
            assert np.array_equal(g[w:, :w], np.conj(o)) and np.array_equal(g[w:, w:], np.conj(s))
            assert g[0, 0] == 1  # d = r = 1: the (0,0) entry's phase is exact

    def test_block_against_mpmath(self, zeros10k):
        mpmath = pytest.importorskip("mpmath")
        rows = redundancy._direct_plan(16)[5]
        ints, w = rows[0].tolist(), rows[0].size
        taus = zeros10k.ordinates[38 * 256:39 * 256]  # the last full block, tau ~ 9.7e3
        assert 9.6e3 < taus[0] < taus[-1] < 9.9e3
        # one block's mean times 256 is its sum exactly
        g = redundancy._gram_means(rows, taus, [256])[0] * 256
        s, o = g[:w, :w], g[:w, w:]
        plain = phase_average(taus, _gram_logs(rows[0])).reshape(2, w, w) * 256
        with mpmath.workdps(40):
            ts = [mpmath.mpf(float(t)) for t in taus]
            for i in range(w):
                for j in range(i, w):
                    for q, gram, sign in ((0, s, 1), (1, o, -1)):
                        x = mpmath.log(ints[i]) + sign * mpmath.log(ints[j])
                        exact = complex(mpmath.fsum(mpmath.expj(-t * x) for t in ts))
                        assert abs(gram[i, j] - exact) <= 2e-10
                        assert abs(plain[q, i, j] - exact) <= 2e-10

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 16, 32, 64])
    def test_tree_structure(self, n):
        bounds, src, mu, d, g, (ints, parent, prime, levels) = redundancy._direct_plan(n)
        terms = dirichlet._window_terms(n)
        pos, src_t, dd, sgn, mu_t = (a[terms[4] != 0] for a in terms[:5])  # the terms of B
        # the rows are the distinct d of the plan: the squarefree d <= n
        assert sorted(ints.tolist()) == sorted(set(dd.tolist())) == _squarefree(max(n, 1))
        primes = [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]
        assert ints[0] == 1 and ints[1:len(primes) + 1].tolist() == primes
        head = np.arange(len(primes) + 1)
        assert np.array_equal(parent[head], np.zeros_like(head))
        assert np.array_equal(prime[head], head)
        composite = np.arange(len(primes) + 1, ints.size)
        assert np.array_equal(ints[parent[composite]] * ints[prime[composite]], ints[composite])
        spf = [next(p for p in primes if d % p == 0) for d in ints[composite].tolist()]
        assert ints[prime[composite]].tolist() == spf
        # levels cover the composite rows in order, each after its parents
        assert [r for a, b in levels for r in range(a, b)] == composite.tolist()
        for a, b in levels:
            assert parent[a:b].max() < a
        # one axis of terms: index i's terms are bounds[i]:bounds[i + 1], none empty
        assert np.array_equal(src, src_t) and np.array_equal(mu, mu_t) and np.array_equal(d, dd)
        assert bounds.size == 2 * n + 2 and bounds[0] == 0 and bounds[-1] == d.size
        assert np.array_equal(np.repeat(np.arange(2 * n + 1), np.diff(bounds)), pos)
        assert np.all(d[bounds[:-1]] == 1)
        # term j reads Gram row row(d), offset by w when k < 0
        w = ints.size
        assert np.array_equal(g // w, (sgn < 0).astype(g.dtype))
        assert np.array_equal(ints[g % w], dd)
        assert all(a.size == d.size for a in (src, mu, g))

    @pytest.mark.parametrize("count", [100, 256, 257, 1000])
    def test_prefix_independent_of_other_counts(self, zeros10k, count):
        rows = redundancy._direct_plan(8)[5]
        taus = zeros10k.ordinates
        shared = redundancy._gram_means(rows, taus, [10, 100, count, 10000])
        assert np.array_equal(redundancy._gram_means(rows, taus, [count])[0], shared[2])
        assert np.array_equal(redundancy._gram_means(rows, taus[:count], [count])[0], shared[2])


class TestChunkedDirectRoute:
    """The direct route forms its output a chunk of rows at a time."""

    @pytest.mark.parametrize("n", [8, 20])
    def test_chunking_leaves_grids_bitwise(self, zeros10k, monkeypatch, n):
        # one output row per chunk, a few rows per chunk, and one chunk (n <= 64)
        f = random_fourier_real(n, np.random.default_rng(n))
        counts = [10, 257, 1000]
        grids = []
        for budget in (1, 1000, redundancy._CHUNK_ENTRIES):
            monkeypatch.setattr(redundancy, "_CHUNK_ENTRIES", budget)
            grids.append([z.data.tobytes() for z in
                          broadband_average_2d_counts(f, 3.0, zeros10k, counts)])
        assert grids[0] == grids[1] == grids[2]

    def test_peak_memory_at_128(self, zeros10k):
        f = random_fourier_real(128, np.random.default_rng(3))
        redundancy._direct_plan.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            broadband_average_2d_counts(f, 3.0, zeros10k, [10, 100, 1000, 10000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the peak holds the four 1 MB output grids and one chunk's F and
        # gathered G, 4.2 MB each at 2^18 terms: 15.7 MB with numpy 2.4
        assert peak <= 20_000_000, peak
        plan = redundancy._direct_plan(128)
        held = sum(a.nbytes for a in plan[:5] + plan[5][:3])
        assert held <= 100_000, held  # arrays of length T = 955 (T^2 = 912k)

    def test_grids_keep_the_route_arrays_at_128(self, zeros10k, monkeypatch):
        # with one output row per chunk the four 1.06 MB output grids dominate:
        # each grid keeps its route's array instead of a copy of it, so the peak
        # is 6.1 MB with numpy 2.4 (10.0 MB when every grid copied its array)
        f = random_fourier_real(128, np.random.default_rng(3))
        monkeypatch.setattr(redundancy, "_CHUNK_ENTRIES", 1 << 12)
        redundancy._direct_plan(128)
        gc.collect()
        tracemalloc.start()
        try:
            grids = broadband_average_2d_counts(f, 3.0, zeros10k, [10, 100, 1000, 10000])
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7_000_000, peak
        assert held <= 4_500_000, held  # the four grids, 4.24 MB
        assert all(not z.data.flags.writeable and z.data.flags.owndata for z in grids)


class TestCoefficientDecay:
    def test_single_zero_value(self):
        zeros = ZeroTable(np.array([14.134725]))
        assert c_d(2, 3.0, zeros, 20.0) == pytest.approx(0.125, abs=1e-15)

    def test_never_exceeds_sigma_power(self, zeros100):
        for d in (2, 3, 4, 5, 6, 10):
            assert c_d(d, 2.0, zeros100, 200.0) <= d**-2.0 + 1e-15

    def test_more_zeros_average_down(self, zeros100):
        few = c_d(2, 3.0, zeros100, zeros100.t_covering(10))
        many = c_d(2, 3.0, zeros100, zeros100.t_covering(100))
        assert many < few

    def test_domain(self, zeros100):
        for d in (1, np.int64(0)):
            with pytest.raises(DomainError, match="^d must be an integer >= 2, got "):
                c_d(d, 3.0, zeros100, 100.0)


class TestAxisAverage:
    def test_head_passes_through_exactly(self, zeros100):
        n = 6
        fhat = np.zeros(2 * n + 1, dtype=complex)
        fhat[1 + n] = 1.0
        fhat[-1 + n] = 1.0
        z = broadband_average_1d(fhat, 3.0, zeros100, 300.0)
        assert z[1 + n] == 1.0
        assert z[-1 + n] == 1.0
        assert z[n] == 0.0

    def test_prime_leak_magnitude_is_cd(self, zeros100):
        n = 6
        t = 300.0
        fhat = np.zeros(2 * n + 1, dtype=complex)
        fhat[1 + n] = 1.0
        z = broadband_average_1d(fhat, 3.0, zeros100, t)
        for p in (2, 3, 5):
            assert abs(abs(z[p + n]) - c_d(p, 3.0, zeros100, t)) < 1e-15
        assert z[4 + n] == 0.0  # mu(4) = 0 kills the only route to 4

    def test_matches_per_zero_average(self, zeros100):
        # literal mean of windowed inverse transforms, one per ordinate
        n = 8
        rng = np.random.default_rng(7)
        fhat = random_fourier_real(n, rng).data[:, n].copy()
        sigma = 2.5
        t = zeros100.t_covering(40)
        fast = broadband_average_1d(fhat, sigma, zeros100, t)
        taus = zeros100.upto(t)
        slow = np.zeros_like(fhat)
        for tau in taus:
            seq = ZetaParams(sigma, tau).sequence(n)
            slow += apply_D_inv(seq, fhat)
        slow /= taus.size
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_rejects_bad_sigma(self, zeros100):
        with pytest.raises(DomainError):
            broadband_average_1d(np.zeros(5, dtype=complex), 1.0, zeros100, 100.0)

    @pytest.mark.parametrize("shape", [(3, 3)], ids=["2-d"])
    def test_rejects_a_vector_not_of_odd_length(self, zeros100, shape):
        with pytest.raises(DimensionError,
                           match=r"^fhat must have shape \(2N\+1,\), got \(3, 3\)$"):
            broadband_average_1d(np.zeros(shape, dtype=complex), 3.0, zeros100, 100.0)


class TestNonFiniteSigma:
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_cli_exits_with_data_error(self, tmp_path, rng, capsys, sigma):
        field = tmp_path / "f.json"
        write_grid(field, random_fourier_real(3, rng))
        out = tmp_path / "o.csv"
        code = run(["redundancy", "--field", str(field), "--sigma", sigma,
                    "--zeros", str(DATA / "zeta_zeros_100.txt"), "--counts", "10",
                    "--out", str(out)])
        assert code == 2
        assert "sigma must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestPlaneAverage:
    def test_agrees_with_per_zero_route(self, zeros100, rng):
        f = random_fourier_real(5, rng)
        t = zeros100.t_covering(60)
        direct = broadband_average_2d(f, 3.0, zeros100, t)
        oracle = broadband_average_2d_per_zero(f, 3.0, zeros100, t)
        assert np.max(np.abs(direct.data - oracle.data)) < 1e-12

    def test_center_entry_exact(self, zeros100, rng):
        f = random_fourier_real(4, rng)
        z = broadband_average_2d(f, 2.0, zeros100, 500.0)
        assert z.entry(0, 0) == f.entry(0, 0)

    def test_axis_row_reduces_to_1d(self, zeros100, rng):
        # the l = 0 column sees only the k-axis divisor sums
        n = 6
        f = random_fourier_real(n, rng)
        t = zeros100.t_covering(30)
        z2 = broadband_average_2d(f, 3.0, zeros100, t)
        z1 = broadband_average_1d(f.data[:, n].copy(), 3.0, zeros100, t)
        assert np.max(np.abs(z2.data[:, n] - z1)) < 1e-13

    def test_preserves_field_symmetry(self, zeros100, rng):
        f = random_fourier_real(5, rng)
        z = broadband_average_2d(f, 3.0, zeros100, 300.0)
        assert z.tag == FOURIER_REAL
        assert fourier_real_deviation(z) < 1e-13 * z.scale()
        zo = broadband_average_2d_per_zero(f, 3.0, zeros100, 300.0)
        assert fourier_real_deviation(zo) < 1e-13 * zo.scale()

    def test_per_zero_route_skips_the_recursion(self, zeros100, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(dirichlet, "dirichlet_inverse",
                            lambda *a, **k: calls.append(a))
        broadband_average_2d_per_zero(random_fourier_real(4, rng), 3.0, zeros100, 300.0)
        assert calls == []

    def test_repeated_calls_are_bitwise_equal(self, zeros100, rng):
        f = random_fourier_real(4, rng)
        t = zeros100.t_covering(50)
        first = broadband_average_2d_per_zero(f, 3.0, zeros100, t)
        again = broadband_average_2d_per_zero(f, 3.0, zeros100, t)
        assert np.array_equal(first.data, again.data)

    def test_worker_count_does_not_change_result(self, zeros100, rng):
        # callers on several threads share the direct-route plan cache,
        # built here concurrently from empty; each sees the one-caller result
        f = random_fourier_real(4, rng)
        t = zeros100.t_covering(50)

        def both_routes(_):
            return (broadband_average_2d(f, 3.0, zeros100, t).data,
                    broadband_average_2d_per_zero(f, 3.0, zeros100, t).data)

        redundancy._direct_plan.cache_clear()
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(both_routes, range(8)))
        direct, per_zero = both_routes(None)
        for d, p in threaded:
            assert np.array_equal(d, direct)
            assert np.array_equal(p, per_zero)

    def test_thread_env_knob(self, zeros100, rng, tmp_path):
        # neither route reads a thread setting: BLAS/OpenMP thread counts
        # in the environment leave both results bitwise unchanged
        f = random_fourier_real(3, rng)
        t = zeros100.t_covering(20)
        np.save(tmp_path / "f.npy", f.data)
        table = pathlib.Path(__file__).resolve().parents[1] / "data" / "zeta_zeros_100.txt"
        child = (
            "import sys, numpy as np\n"
            "from qtorus import (FOURIER_REAL, CoeffGrid, load_zero_table,\n"
            "    broadband_average_2d, broadband_average_2d_per_zero)\n"
            "out, table, t = sys.argv[1], sys.argv[2], float(sys.argv[3])\n"
            "data = np.load(out + '/f.npy')\n"
            "f = CoeffGrid((data.shape[0] - 1) // 2, data, FOURIER_REAL)\n"
            "zeros = load_zero_table(table)\n"
            "np.save(out + '/direct.npy', broadband_average_2d(f, 3.0, zeros, t).data)\n"
            "np.save(out + '/per_zero.npy',\n"
            "        broadband_average_2d_per_zero(f, 3.0, zeros, t).data)\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        direct = broadband_average_2d(f, 3.0, zeros100, t).data
        per_zero = broadband_average_2d_per_zero(f, 3.0, zeros100, t).data
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            subprocess.run([sys.executable, "-c", child, str(tmp_path), str(table),
                            repr(t)], env=env, check=True, timeout=120)
            assert np.array_equal(np.load(tmp_path / "direct.npy"), direct)
            assert np.array_equal(np.load(tmp_path / "per_zero.npy"), per_zero)

    def test_direct_route_leaves_numpy_ma_unimported(self, rng, tmp_path):
        # a plain np.unique imports numpy.ma (about 1 MB) on first use; a fresh
        # `qtorus redundancy` run builds its plan and averages without it
        field = tmp_path / "f.json"
        write_grid(field, random_fourier_real(16, rng))
        child = ("import sys\nfrom qtorus.cli import run\n"
                 "assert run(sys.argv[1:]) == 0\n"
                 "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        subprocess.run([sys.executable, "-c", child, "redundancy", "--field", str(field),
                        "--sigma", "3", "--zeros", str(DATA / "zeta_zeros_100.txt"),
                        "--counts", "10,100", "--out", str(tmp_path / "r.csv")],
                       env=env, check=True, timeout=120)

    def test_error_shrinks_with_more_zeros(self, zeros100, rng):
        f = random_fourier_real(6, rng)
        sigma = 3.0
        errs = []
        for count in (10, 100):
            z = broadband_average_2d(f, sigma, zeros100, zeros100.t_covering(count))
            errs.append(averaging_errors(z, f)[0])
        assert errs[1] < errs[0]


@pytest.mark.parametrize("make,tag", [(random_fourier_real, FOURIER_REAL),
                                      (random_hermitian, GENERAL), (random_general, GENERAL)])
@pytest.mark.parametrize("route", ["d_transform_2d", "counts", "per_zero"])
def test_window_images_keep_only_the_fourier_real_tag(zeros100, rng, route, make, tag):
    f = make(3, rng)
    images = {
        "d_transform_2d": lambda: [d_transform_2d(ZetaParams(3.0, 14.1).sequence(3), f)],
        "counts": lambda: broadband_average_2d_counts(f, 3.0, zeros100, [5, 40]),
        "per_zero": lambda: [broadband_average_2d_per_zero(f, 3.0, zeros100, 60.0)],
    }[route]()
    for z in images:
        assert z.tag == tag
        if tag == FOURIER_REAL:
            assert fourier_real_deviation(z) <= 1e-13 * z.scale()


class TestPerZeroBatching:
    """The batched per-zero route against the one-ordinate-at-a-time fold."""

    # every tag: the cone blocks rest on the structure of B alone, not on the
    # field's symmetry; the fourier-real cases keep their ids "count-n"
    @pytest.mark.parametrize("count,n,make", [
        pytest.param(count, n, make, id="%d-%d%s" % (count, n, suffix))
        for make, suffix in ((random_fourier_real, ""), (random_general, "-general"),
                             (random_hermitian, "-hermitian"))
        for n in (0, 1, 2, 7) for count in (1, 7, 255, 256, 257, 600)])
    def test_matches_sequential_fold(self, zeros10k, n, count, make):
        f = make(n, np.random.default_rng(1000 * n + count))
        t = zeros10k.t_covering(count)
        batched = broadband_average_2d_per_zero(f, 2.5, zeros10k, t)
        slow = sequential_per_zero_average(f, 2.5, zeros10k.ordinates[:count])
        assert np.max(np.abs(batched.data - slow)) <= 1e-13 * f.scale()

    def test_moebius_terms_built_once_per_call(self, zeros10k, monkeypatch):
        build, calls = redundancy._moebius_terms, []

        def spy(sigma, lmax):
            calls.append(lmax)
            return build(sigma, lmax)

        monkeypatch.setattr(redundancy, "_moebius_terms", spy)
        f = random_general(7, np.random.default_rng(7))
        broadband_average_2d_per_zero(f, 2.5, zeros10k, zeros10k.t_covering(600))  # 3 blocks
        assert calls == [7]

    def test_peak_memory_at_32(self, zeros10k):
        # the sub-batch buffers hold SUB_BATCH ordinates whatever the count:
        # P and N (262 KB each at n = 32) and W (1.08 MB); 2.54 MB with numpy 2.4
        # (the dense route of SUB_BATCH = 8 peaked at 1.99 MB); buffers of one
        # 256-ordinate block would take W alone to 17 MB
        f = random_general(32, np.random.default_rng(32))
        t = zeros10k.t_covering(300)
        broadband_average_2d_per_zero(f, 3.0, zeros10k, t)  # window terms cached
        gc.collect()
        tracemalloc.start()
        try:
            broadband_average_2d_per_zero(f, 3.0, zeros10k, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000, peak


class TestErrorAccounting:
    def test_field_and_operator_errors_agree(self, zeros100, rng):
        f = random_fourier_real(5, rng)
        z = broadband_average_2d(f, 3.0, zeros100, 300.0)
        l2, hs = averaging_errors(z, f)
        assert abs(l2 - hs) <= 1e-12 * max(l2, 1e-300)

    def test_zero_error_on_identical_grids(self, rng):
        f = random_fourier_real(3, rng)
        l2, hs = averaging_errors(f, f)
        assert l2 == 0.0
        assert hs == 0.0

    def test_single_entry_error_is_distance(self, zeros100):
        f = single_entry(2, 1, 0, 1.0, FOURIER_REAL)
        g = single_entry(2, 1, 0, 0.25, FOURIER_REAL)
        # not symmetric grids by themselves; symmetrize for the field check
        fd = f.data + np.conj(f.data[::-1, ::-1])
        gd = g.data + np.conj(g.data[::-1, ::-1])
        l2, hs = averaging_errors(CoeffGrid(2, fd, FOURIER_REAL),
                                  CoeffGrid(2, gd, FOURIER_REAL))
        assert_allclose(l2, np.sqrt(2.0) * 0.75, rtol=1e-14)
        assert_allclose(hs, l2, rtol=1e-13)


def _sweep(*flags):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, str(root / "scripts" / "redundancy_sweep.py"),
         "--zeros", str(root / "data" / "zeta_zeros_100.txt"), "--field", "random4",
         "--n", "5", "--sigmas", "2,3", "--counts", "1,10,100", *flags],
        env=env, capture_output=True, text=True, timeout=120)


def test_sweep_script_prints_one_row_per_cell():
    proc = _sweep()
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "field,sigma,zero_count,T,l2_error,hs_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], float(r[1]), int(r[2])) for r in rows] == [
        ("random4", s, c) for s in (2.0, 3.0) for c in (1, 10, 100)]
    assert all(math.isfinite(float(v)) for r in rows for v in r[3:])


@pytest.mark.parametrize("flags, err", [
    (["--counts", "0"], "counts must be positive integers"),
    (["--counts", "1_0"], "bad count list '1_0'"),
    (["--counts", "101"], "table holds 100 ordinates, cannot cover 101"),
    (["--sigmas", "nan"], "sigma must be finite, got nan"),
    (["--sigmas", "1"], "the zeta re-encoding needs a finite sigma > 1, got 1"),
    (["--sigmas", "2,x"], "bad sigma list '2,x'"),
    (["--out", "{tmp}"], "[Errno 21] Is a directory: '{tmp}'"),
], ids=["count-0", "count-1_0", "count-past-table", "sigma-nan", "sigma-1", "sigma-not-a-number",
        "out-is-a-directory"])
def test_sweep_script_refuses_bad_input_in_one_line(tmp_path, flags, err):
    proc = _sweep(*[flag.format(tmp=tmp_path) for flag in flags])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: %s\n" % err.format(tmp=tmp_path))
    assert list(tmp_path.iterdir()) == []  # no temp file is left


def test_zero_table_script_writes_validates_and_resumes(tmp_path):
    pytest.importorskip("mpmath")
    root = pathlib.Path(__file__).resolve().parents[1]
    out = tmp_path / "zeros.txt"

    def generate(*flags):
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "generate_zero_table.py"),
             "--out", str(out), *flags], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert "validated first 5 entries, 0 failures" in generate("--count", "5", "--validate", "5")
    first = out.read_text()
    generate("--count", "7")
    # the 5 entries stay and 2 are appended; only the header's count changes
    assert out.read_text().replace("first 7 ", "first 5 ", 1).startswith(first)
    table = load_zero_table(out)
    assert table.count == 7
    shipped = load_zero_table(DATA / "zeta_zeros_100.txt")
    assert table.ordinates[:5].tobytes() == shipped.ordinates[:5].tobytes()
    assert np.all(np.diff(table.ordinates) > 0)


def test_zero_table_resume_rewrites_the_count_and_keeps_the_precision(tmp_path):
    pytest.importorskip("mpmath")
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "generate_zero_table.py"
    out = tmp_path / "zeros.txt"

    def generate(*flags):
        return subprocess.run([sys.executable, str(script), "--out", str(out), *flags],
                              capture_output=True, text=True, timeout=120)

    assert generate("--count", "3").returncode == 0
    assert generate("--count", "5").returncode == 0
    header = out.read_text().splitlines()[:2]
    assert header == [
        "# imaginary parts of the first 5 nontrivial zeros of the Riemann zeta function",
        "# computed with mpmath.zetazero, 20 decimal digits working precision"]
    assert load_zero_table(out).count == 5
    written = out.read_bytes()
    proc = generate("--count", "7", "--dps", "30")
    assert proc.returncode == 2
    assert "--dps 20" in proc.stderr and "--dps 30" in proc.stderr
    assert out.read_bytes() == written
    assert os.listdir(tmp_path) == ["zeros.txt"]
