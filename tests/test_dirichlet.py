"""Divisor-sum machinery: convolution ring, inverses, window operators."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from numpy.testing import assert_allclose

from qtorus import (
    FOURIER_REAL,
    ArithmeticSeq,
    ZetaParams,
    apply_D,
    apply_D_inv,
    d_matrix,
    d_transform_2d,
    dirichlet_convolve,
    dirichlet_inverse,
    estimated_operator_norm,
    fourier_real_deviation,
    moebius,
    operator_norm_bound,
    periodized_zeta,
    q_transform,
    qd_transform,
    s_map,
    unit_sequence,
)
from qtorus.dirichlet import _window_terms, moebius_inverse_rows
from qtorus.errors import DimensionError, DomainError

from helpers import (
    naive_divisor_transform_1d,
    naive_divisor_transform_2d,
    random_fourier_real,
)

MU_FIRST_20 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
               -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


def seq_strategy(lmax, scale=1.0):
    """1-based coefficient arrays with a guaranteed invertible head."""
    return st.lists(
        st.complex_numbers(max_magnitude=scale, allow_nan=False, allow_infinity=False),
        min_size=lmax - 1, max_size=lmax - 1,
    ).map(lambda tail: np.concatenate(([0.0, 1.0], tail)))


class TestMoebius:
    def test_first_twenty(self):
        assert [moebius(n) for n in range(1, 21)] == MU_FIRST_20

    def test_squarefull_vanish(self):
        for n in (4, 8, 9, 12, 16, 18, 25, 49, 50, 98, 100):
            assert moebius(n) == 0

    def test_primorials(self):
        assert moebius(2 * 3 * 5) == -1
        assert moebius(2 * 3 * 5 * 7) == 1
        assert moebius(101) == -1

    def test_divisor_sums_collapse(self):
        # sum over d | n of mu(d) is the unit sequence
        for n in range(1, 200):
            total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
            assert total == (1 if n == 1 else 0)

    @given(m=st.integers(1, 60), n=st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_on_coprimes(self, m, n):
        if np.gcd(m, n) == 1:
            assert moebius(m * n) == moebius(m) * moebius(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            moebius(0)
        with pytest.raises(DomainError):
            moebius(-5)


class TestConvolutionRing:
    @given(a=seq_strategy(12), b=seq_strategy(12))
    @settings(max_examples=100, deadline=None)
    def test_commutative(self, a, b):
        assert_allclose(dirichlet_convolve(a, b), dirichlet_convolve(b, a), atol=1e-12)

    @given(a=seq_strategy(10), b=seq_strategy(10), c=seq_strategy(10))
    @settings(max_examples=100, deadline=None)
    def test_associative(self, a, b, c):
        left = dirichlet_convolve(dirichlet_convolve(a, b), c)
        right = dirichlet_convolve(a, dirichlet_convolve(b, c))
        assert_allclose(left, right, atol=1e-10)

    @given(a=seq_strategy(16))
    @settings(max_examples=100, deadline=None)
    def test_unit_is_neutral(self, a):
        assert_allclose(dirichlet_convolve(a, unit_sequence(16)), a, atol=0)

    @given(a=seq_strategy(16, scale=2.0))
    @settings(max_examples=100, deadline=None)
    def test_inverse_cancels(self, a):
        b = dirichlet_inverse(a)
        assert_allclose(dirichlet_convolve(a, b), unit_sequence(16), atol=1e-9)

    def test_inverse_of_ones_is_moebius(self):
        lmax = 1000
        b = dirichlet_inverse(np.ones(lmax + 1))
        mu = np.array([0] + [moebius(k) for k in range(1, lmax + 1)], dtype=float)
        assert np.max(np.abs(b - mu)) == 0.0

    def test_inverse_respects_closed_form(self):
        zp = ZetaParams(sigma=2.0, tau=14.13)
        seq = zp.sequence(64)
        assert np.max(np.abs(seq.b - zp.moebius_inverse(64))) < 1e-14

    def test_closed_form_rows_match_recursion(self):
        taus = np.array([14.134725, 21.022040, 1000.5, 9877.78])
        rows = moebius_inverse_rows(2.5, taus, 40)
        assert rows.shape == (4, 41)
        for tau, row in zip(taus, rows):
            zp = ZetaParams(sigma=2.5, tau=tau)
            assert np.array_equal(row, zp.moebius_inverse(40))
            # both routes round the phase tau log k, whose size grows with tau
            tol = 4 * np.finfo(float).eps * tau * np.log(40)
            assert np.max(np.abs(row - zp.sequence(40).b)) < tol

    def test_inverse_needs_unit_head(self):
        with pytest.raises(DomainError):
            dirichlet_inverse(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            ArithmeticSeq(np.array([0.0, 0.0, 1.0]))

    def test_sequence_is_one_based(self):
        s = ArithmeticSeq(np.array([99.0, 2.0, 3.0]))
        assert s.a[0] == 0.0  # slot 0 is dead storage
        assert s.lmax == 2


class TestWindowOperator:
    def test_matrix_column_pattern(self):
        # column at +2 feeds rows 2d with weight a_d; mirrored conjugate below
        a = np.array([0.0, 1.0, 0.5 + 0.25j, 0.1, 0.0, 0.0, 0.0])
        mat = d_matrix(a, 6)
        col = mat[:, 2 + 6]
        expect = np.zeros(13, dtype=complex)
        expect[2 + 6] = 1.0
        expect[4 + 6] = 0.5 + 0.25j
        expect[6 + 6] = 0.1
        assert np.max(np.abs(col - expect)) == 0.0
        ncol = mat[:, -2 + 6]
        nexpect = np.zeros(13, dtype=complex)
        nexpect[-2 + 6] = 1.0
        nexpect[-4 + 6] = 0.5 - 0.25j
        nexpect[-6 + 6] = 0.1
        assert np.max(np.abs(ncol - nexpect)) == 0.0

    def test_index_zero_passthrough(self):
        a = np.array([0.0, 1.0, 7.0, 0.0])
        mat = d_matrix(a, 3)
        x = np.zeros(7, dtype=complex)
        x[3] = 2.5
        assert_allclose(mat @ x, x, atol=0)

    @given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_matrix(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        raw[1] = 1.0
        seq = ArithmeticSeq(raw)
        x = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        assert_allclose(apply_D(seq, x), d_matrix(seq.a, n) @ x, atol=1e-12)

    @given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_divisor_sums(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        raw[1] = 1.0
        seq = ArithmeticSeq(raw)
        x = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        assert_allclose(apply_D(seq, x), naive_divisor_transform_1d(seq.a, x),
                        atol=1e-12)

    def test_window_round_trip(self, rng):
        # truncation is closed under divisor sums, so the inverse is exact
        n = 64
        raw = 0.5 * (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        raw[1] = 1.0
        seq = ArithmeticSeq(raw)
        x = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        assert np.max(np.abs(apply_D_inv(seq, apply_D(seq, x)) - x)) < 1e-10
        assert np.max(np.abs(apply_D(seq, apply_D_inv(seq, x)) - x)) < 1e-10

    def test_short_sequence_rejected(self):
        seq = ArithmeticSeq(np.array([0.0, 1.0, 0.5]))
        with pytest.raises(DimensionError):
            apply_D(seq, np.zeros(11, dtype=complex))
        with pytest.raises(DimensionError):
            d_matrix(seq.a, 5)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16])
    def test_stacked_matrices_equal_single_calls(self, rng, n):
        coeffs = rng.standard_normal((5, n + 3)) + 1j * rng.standard_normal((5, n + 3))
        stack = d_matrix(coeffs, n)
        assert stack.shape == (5, 2 * n + 1, 2 * n + 1)
        for row, mat in zip(coeffs, stack):
            assert np.array_equal(mat, d_matrix(row, n))
        with pytest.raises(DimensionError):
            d_matrix(coeffs[:, :n], n)

    @pytest.mark.parametrize("n", [0, 1, 2, 12, 60])
    def test_pattern_hits_each_entry_once(self, n):
        row, col, d, sgn, mu = _window_terms(n)
        cells = list(zip(row.tolist(), col.tolist()))
        assert len(set(cells)) == len(cells)
        k = row - n
        assert np.array_equal(sgn, np.sign(k))
        assert np.array_equal(k, d * (col - n))  # entry (k, k/d)
        # one term per divisor pair (k, d | k) on each cone, d ascending; k = 0 has d = 1
        expect = [(i, j) for i in range(-n, n + 1)
                  for j in range(1, max(abs(i), 1) + 1) if i % j == 0]
        assert list(zip(k.tolist(), d.tolist())) == expect
        assert mu.tolist() == [moebius(j) for j in d.tolist()]

    def test_applies_along_first_axis_only(self, rng):
        seq = ArithmeticSeq(np.array([0.0, 1.0, 0.5]))
        x = rng.standard_normal((5, 3)).astype(complex)
        stacked = apply_D(seq, x)
        for j in range(3):
            assert_allclose(stacked[:, j], apply_D(seq, x[:, j]), atol=0)


class TestPlaneTransform:
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_divisor_sum_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = 0.4 * (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        raw[1] = 1.0
        seq = ArithmeticSeq(raw)
        fhat = random_fourier_real(n, rng)
        fast = d_transform_2d(seq, fhat)
        inv = ArithmeticSeq(seq.b.copy())
        slow = naive_divisor_transform_2d(inv.a, fhat)
        assert np.max(np.abs(fast.data - slow.data)) < 1e-11

    def test_preserves_field_symmetry(self, rng):
        seq = ZetaParams(sigma=3.0, tau=14.134725).sequence(8)
        f = random_fourier_real(8, rng)
        z = d_transform_2d(seq, f)
        assert z.tag == FOURIER_REAL
        assert fourier_real_deviation(z) < 1e-12 * z.scale()

    def test_unit_sequence_is_identity(self, rng):
        seq = ArithmeticSeq(unit_sequence(6))
        f = random_fourier_real(6, rng)
        assert np.max(np.abs(d_transform_2d(seq, f).data - f.data)) == 0.0
        w = qd_transform(seq, f)
        assert np.max(np.abs(w.data - q_transform(f).data)) == 0.0

    def test_rearranged_output_hermitian(self, rng):
        seq = ZetaParams(sigma=2.5, tau=21.022).sequence(5)
        f = random_fourier_real(5, rng)
        w = qd_transform(seq, f)
        assert np.max(np.abs(w.data - np.conj(w.data.T))) < 1e-12 * w.scale()
        assert np.max(np.abs(w.data - s_map(d_transform_2d(seq, f)).data)) == 0.0


class TestOperatorNorm:
    def test_bound_formula(self):
        seq = ArithmeticSeq(np.array([0.0, 2.0, -1.0, 0.5j]))
        assert operator_norm_bound(seq) == 3.5
        # small coefficients: the identity part dominates
        tiny = ArithmeticSeq(np.array([0.0, 0.1, 0.1]))
        assert operator_norm_bound(tiny) == 1.0

    def test_estimate_matches_svd(self, rng):
        for n in (3, 8, 17):
            raw = 0.6 * (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
            raw[1] = 1.0 + 0.2j
            seq = ArithmeticSeq(raw)
            est = estimated_operator_norm(seq, n)
            exact = np.linalg.svd(d_matrix(seq.a, n), compute_uv=False)[0]
            assert_allclose(est, exact, rtol=1e-12)

    def test_estimate_below_bound(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 20))
            raw = rng.standard_normal(n + 1) * (0.5 ** np.arange(n + 1))
            raw[1] = 1.0
            seq = ArithmeticSeq(raw.astype(complex))
            assert (estimated_operator_norm(seq, n)
                    <= operator_norm_bound(seq) + 1e-9)

    def test_unit_sequence_has_unit_norm(self):
        seq = ArithmeticSeq(unit_sequence(10))
        assert_allclose(estimated_operator_norm(seq, 10), 1.0, rtol=1e-12)


class TestPeriodizedZeta:
    def test_apery_point(self):
        got = periodized_zeta(3.0, 0.0, 4000)
        zeta3 = 1.2020569031595942854
        assert abs(got.value - zeta3) <= got.tail_bound
        assert abs(got.value - zeta3) < 1e-7

    def test_alternating_point(self):
        got = periodized_zeta(2.0, 0.5, 20000)
        target = -np.pi**2 / 12.0
        assert abs(got.value.imag) < 1e-12
        assert abs(got.value.real - target) <= got.tail_bound

    def test_tail_bound_dominates_truncation(self):
        # stopping earlier may not hurt more than the reported bound
        full = periodized_zeta(2.5, 0.3, 200000).value
        for terms in (10, 100, 1000):
            got = periodized_zeta(2.5, 0.3, terms)
            assert abs(got.value - full) <= got.tail_bound

    def test_tail_shrinks(self):
        bounds = [periodized_zeta(3.0, 0.1, k).tail_bound for k in (1, 10, 100, 1000)]
        assert all(x > y for x, y in zip(bounds, bounds[1:]))

    def test_zero_terms_is_pure_tail(self):
        got = periodized_zeta(4.0, 0.7, 0)
        assert got.value == 0.0
        assert got.tail_bound == 1.0 + 1.0 / 3.0

    def test_domain(self):
        with pytest.raises(DomainError):
            periodized_zeta(1.0, 0.0, 10)
        with pytest.raises(DomainError):
            periodized_zeta(0.5 + 14.1j, 0.0, 10)
        with pytest.raises(DomainError):
            periodized_zeta(2.0, 0.0, -1)
        with pytest.raises(DomainError):
            ZetaParams(sigma=1.0, tau=0.0)
        for sigma in (1.0, 0.5, -2.0):
            with pytest.raises(DomainError, match="finite sigma > 1"):
                moebius_inverse_rows(sigma, [14.134725], 10)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(DomainError):
            ZetaParams(sigma=sigma, tau=14.0)
        with pytest.raises(DomainError, match="finite sigma > 1"):
            moebius_inverse_rows(sigma, [14.134725], 10)

    @pytest.mark.parametrize("s", [complex(float("nan"), 0.0), complex(float("inf"), 0.0),
                                   complex(-float("inf"), 0.0), complex(2.0, float("nan"))])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(DomainError):
            periodized_zeta(s, 0.0, 10)


def test_zeta_sequence_values():
    zp = ZetaParams(sigma=3.0, tau=0.0)
    seq = zp.sequence(8)
    ks = np.arange(1, 9, dtype=float)
    assert_allclose(seq.a[1:], ks**-3.0, rtol=1e-14)
    zp = ZetaParams(sigma=2.0, tau=5.0)
    a2 = zp.sequence(2).a[2]
    assert_allclose(a2, 2.0**-2 * np.exp(-5j * np.log(2.0)), rtol=1e-14)


def test_sequences_too_short_rejected():
    with pytest.raises(DimensionError):
        ArithmeticSeq(np.array([1.0]))


@pytest.mark.parametrize("call, error, match", [
    (lambda: apply_D(ZetaParams(3.0, 0.0).sequence(4), np.zeros(4)), DimensionError,
     "must be odd"),
    (lambda: dirichlet_inverse(np.ones(1)), DomainError, "at least the coefficient at 1"),
], ids=["apply-even-length", "inverse-of-length-1"])
def test_malformed_operands_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()
