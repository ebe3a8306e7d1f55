"""Weighted inner products, norm inequalities, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from numpy.testing import assert_allclose

from qtorus import (
    CoeffGrid,
    SobolevWeight,
    commutator_pairing,
    inner,
    norm,
    single_entry,
)
from qtorus.errors import DimensionError, DomainError

from helpers import random_general, random_hermitian

# |v|^2 underflows below ~1e-154; keep magnitudes clear of that
finite_floats = st.one_of(
    st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@given(k=st.integers(-6, 6), l=st.integers(-6, 6),
       re=finite_floats, im=finite_floats,
       alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@settings(max_examples=200, deadline=None)
def test_single_entry_norm_closed_form(k, l, re, im, alpha):
    g = single_entry(6, k, l, re + 1j * im)
    expected = abs(re + 1j * im) * (1.0 + k * k + l * l) ** (alpha / 2.0)
    assert_allclose(norm(g, SobolevWeight(alpha)), expected, rtol=1e-13, atol=1e-300)


def test_unit_diagonal_entry_weight():
    # (k,l) = (1,1) carries weight 3^alpha
    g = single_entry(2, 1, 1, 1.0)
    assert inner(g, g, SobolevWeight(1.0)) == 3.0
    assert norm(g, SobolevWeight(1.0)) == np.sqrt(3.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e200, -1e200j, 1e300 + 1e300j, 1e-200, 1e-305j])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_squares_out_of_range_still_give_the_norm(value, alpha):
    # |value|^2 overflows or underflows; the norm itself is representable
    g = single_entry(2, 1, -1, value)
    expected = abs(value) * 3.0 ** (alpha / 2.0)
    assert_allclose(norm(g, SobolevWeight(alpha)), expected, rtol=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value, expected", [(np.inf, np.inf), (complex(1.0, np.nan), np.nan)])
def test_non_finite_entries_give_a_non_finite_norm(value, expected):
    # the sum is not finite, so the rescaled sum is tried and handed back unchanged
    g = single_entry(2, 1, -1, value)
    assert_allclose(norm(g, SobolevWeight(1.0)), expected)


def test_ordinary_norms_keep_the_plain_sum_bits(rng):
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            g = random_general(4, rng, scale=scale)
            wgt = SobolevWeight(alpha).weights(4)
            plain = float(np.sqrt(np.sum(wgt * np.abs(g.data) ** 2)))
            assert norm(g, SobolevWeight(alpha)) == plain


def test_alpha_zero_is_frobenius(rng):
    a = random_general(4, rng)
    b = random_general(4, rng)
    w = SobolevWeight(0.0)
    assert_allclose(inner(a, b, w), np.trace(a.data @ np.conj(b.data.T)), rtol=1e-13)
    assert_allclose(norm(a, w), np.linalg.norm(a.data), rtol=1e-13)


@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@settings(max_examples=150, deadline=None)
def test_submultiplicative(n, seed, alpha):
    rng = np.random.default_rng(seed)
    a = random_general(n, rng)
    b = random_general(n, rng)
    w = SobolevWeight(alpha)
    prod = CoeffGrid(n, a.data @ b.data)
    assert norm(prod, w) <= norm(a, w) * norm(b, w) + 1e-10


@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([0.0, 1.0, 2.0]))
@settings(max_examples=150, deadline=None)
def test_commutator_norm_factor_two(n, seed, alpha):
    rng = np.random.default_rng(seed)
    a = random_general(n, rng)
    b = random_general(n, rng)
    w = SobolevWeight(alpha)
    comm = CoeffGrid(n, a.data @ b.data - b.data @ a.data)
    assert norm(comm, w) <= 2.0 * norm(a, w) * norm(b, w) + 1e-10


def test_norm_monotone_in_alpha(rng):
    a = random_general(5, rng)
    norms = [norm(a, SobolevWeight(al)) for al in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
    assert all(x <= y + 1e-12 for x, y in zip(norms, norms[1:]))


def test_diagonal_phase_conjugation_invariance(rng):
    # U = diag(e^{i theta_k}) permutes nothing and rescales nothing
    n = 5
    a = random_general(n, rng)
    theta = rng.uniform(0, 2 * np.pi, 2 * n + 1)
    u = np.diag(np.exp(1j * theta))
    rotated = CoeffGrid(n, u @ a.data @ np.conj(u.T))
    for alpha in (0.0, 1.0, 2.5):
        w = SobolevWeight(alpha)
        assert_allclose(norm(rotated, w), norm(a, w), rtol=1e-13)


class TestPairing:
    def test_purely_imaginary(self, rng):
        h = random_hermitian(5, rng)
        a = random_hermitian(5, rng)
        w = SobolevWeight(1.0)
        p = commutator_pairing(h, a, w)
        assert abs(p.real) <= 1e-12 * norm(h, w) * norm(a, w) ** 2

    def test_vanishes_on_equal_arguments(self, rng):
        a = random_hermitian(4, rng)
        assert commutator_pairing(a, a, SobolevWeight(2.0)) == 0.0

    def test_rejects_non_hermitian(self, rng):
        from qtorus.errors import HermiticityError

        h = random_hermitian(3, rng)
        bad = random_general(3, rng)
        with pytest.raises(HermiticityError):
            commutator_pairing(h, bad, SobolevWeight(0.0))
        with pytest.raises(HermiticityError):
            commutator_pairing(bad, h, SobolevWeight(0.0))


def test_custom_profile_used(rng):
    a = random_general(3, rng)
    flat = SobolevWeight(alpha=7.0, profile=lambda r2: np.ones_like(r2))
    assert_allclose(norm(a, flat), np.linalg.norm(a.data), rtol=1e-13)


def test_negative_profile_rejected():
    w = SobolevWeight(profile=lambda r2: -np.ones_like(r2))
    with pytest.raises(DomainError):
        w.weights(2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_profile_rejected(rng, bad):
    w = SobolevWeight(profile=lambda r2: np.where(r2 == 2, bad, 1.0))
    with pytest.raises(DomainError, match="finite"):
        w.weights(2)
    with pytest.raises(DomainError, match="finite"):
        norm(random_general(2, rng), w)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha,n", [(400.0, 3), (80.0, 64), (1e6, 1)])
def test_overflowing_weights_refused(rng, alpha, n):
    # (1 + k^2 + l^2)^alpha overflows to inf (and inf * 0 entries to nan)
    with pytest.raises(DomainError, match="overflows at band limit %d" % n):
        norm(random_general(n, rng), SobolevWeight(alpha))


@pytest.mark.filterwarnings("error")
def test_large_and_underflowing_weights_are_kept():
    assert SobolevWeight(400.0).weights(1).max() == 3.0 ** 400  # ~7e190 at the corner
    assert SobolevWeight(-400.0).weights(3).min() == 0.0  # 19^-400 underflows; no refusal


def test_misshapen_profile_rejected():
    w = SobolevWeight(profile=lambda r2: np.ones(3))
    with pytest.raises(DimensionError):
        w.weights(2)


def test_size_mismatch_rejected(rng):
    with pytest.raises(DimensionError):
        inner(random_general(2, rng), random_general(3, rng), SobolevWeight(0.0))
