"""Rearrangement map, sampling transforms, and their inverses."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from numpy.testing import assert_allclose

from qtorus import (
    FOURIER_REAL,
    GENERAL,
    HERMITIAN,
    CoeffGrid,
    SampleGrid,
    SobolevWeight,
    analyze,
    fourier_real_deviation,
    hermitian_deviation,
    hermitian_split,
    q_inverse,
    q_transform,
    s_inv,
    s_map,
    single_entry,
    synthesize,
)
from qtorus.errors import DimensionError, HermiticityError, SymmetryError

from helpers import (
    naive_analyze,
    naive_s_map,
    random_fourier_real,
    random_general,
    random_hermitian,
)

SQRT2 = np.sqrt(2.0)


class TestRearrangementHandValues:
    def test_diagonal_cosine_mode(self):
        # cos(2pi(x+y)): coefficients 1/2 at (1,1) and (-1,-1)
        f = SampleGrid.from_function(5, lambda x, y: np.cos(2 * np.pi * (x + y)))
        z = analyze(f)
        w = s_map(CoeffGrid(z.n, z.data, FOURIER_REAL))
        assert_allclose(w.entry(1, 1), SQRT2 / 2, atol=1e-14)
        assert_allclose(w.entry(-1, -1), 0.0, atol=1e-14)
        rest = np.array(w.data)
        rest[3, 3] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_diagonal_sine_mode(self):
        f = SampleGrid.from_function(5, lambda x, y: np.sin(2 * np.pi * (x + y)))
        w = s_map(CoeffGrid(2, analyze(f).data, FOURIER_REAL))
        assert_allclose(w.entry(-1, -1), SQRT2 / 2, atol=1e-14)
        assert_allclose(w.entry(1, 1), 0.0, atol=1e-14)

    def test_single_axis_cosine(self):
        f = SampleGrid.from_function(5, lambda x, y: np.cos(2 * np.pi * x))
        w = s_map(CoeffGrid(2, analyze(f).data, FOURIER_REAL))
        assert_allclose(w.entry(-1, 0), 0.5, atol=1e-14)
        assert_allclose(w.entry(0, -1), 0.5, atol=1e-14)
        assert_allclose(w.entry(1, 0), 0.0, atol=1e-14)
        assert_allclose(w.entry(0, 1), 0.0, atol=1e-14)

    def test_constant_passes_through(self):
        z = single_entry(3, 0, 0, 2.5, FOURIER_REAL)
        w = s_map(z)
        assert w.entry(0, 0) == 2.5
        assert np.count_nonzero(w.data) == 1


@given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_s_map_matches_entrywise_rules(n, seed):
    z = random_fourier_real(n, np.random.default_rng(seed))
    fast = s_map(z)
    slow = naive_s_map(z)
    assert np.max(np.abs(fast.data - slow.data)) < 1e-14
    assert fast.tag == HERMITIAN


@given(n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_s_map_output_hermitian(n, seed):
    # bitwise, since `evolve_steps` takes its Hermitian body only on exactly
    # Hermitian data, and `qtorus evolve` steps q_transform output
    rng = np.random.default_rng(seed)
    z = random_fourier_real(n, rng)
    # a point symmetry off by round-off still passes the fourier-real check
    noisy = CoeffGrid(n, z.data * (1.0 + 1e-15 * rng.standard_normal(z.data.shape)),
                      FOURIER_REAL)
    for f in (z, noisy):
        w = q_transform(f).data
        assert np.array_equal(w, np.conj(w.T))


@given(n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_round_trip_from_field(n, seed):
    z = random_fourier_real(n, np.random.default_rng(seed))
    back = s_inv(s_map(z))
    assert np.max(np.abs(back.data - z.data)) < 1e-14
    assert back.tag == FOURIER_REAL


@given(n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_round_trip_from_matrix(n, seed):
    w = random_hermitian(n, np.random.default_rng(seed))
    back = s_map(s_inv(w))
    assert np.max(np.abs(back.data - w.data)) < 1e-14


def test_s_map_rejects_asymmetric_grid(rng):
    bad = random_general(3, rng)
    with pytest.raises(SymmetryError):
        s_map(bad)


def test_s_inv_rejects_non_hermitian(rng):
    bad = random_general(3, rng)
    with pytest.raises(HermiticityError):
        s_inv(bad)


@pytest.mark.parametrize("make, match", [
    (lambda: CoeffGrid(-1, np.zeros((1, 1))), "band limit must be non-negative"),
    (lambda: CoeffGrid(1, np.zeros((3, 3)), "symmetric"), "unknown grid tag"),
    (lambda: CoeffGrid(1, np.zeros((3, 4))), r"needs shape \(3, 3\)"),
    (lambda: CoeffGrid(1, np.zeros((3, 3))).entry(2, 0), "outside band limit 1"),
    (lambda: SampleGrid(3, np.zeros((3, 2))), r"needs shape \(3, 3\)"),
], ids=["negative-n", "unknown-tag", "coeff-shape", "entry-outside-band", "sample-shape"])
def test_grid_containers_refuse_bad_shapes(make, match):
    with pytest.raises(DimensionError, match=match):
        make()


class TestGridOwnership:
    """A grid copies an array unless nothing else can write to it."""

    def test_writable_input_is_not_aliased(self):
        a = np.zeros((3, 3), dtype=complex)
        g = CoeffGrid(1, a)
        assert not np.shares_memory(g.data, a)
        a[0, 0] = 1.0
        assert g.data[0, 0] == 0.0 and a.flags.writeable

    def test_read_only_view_of_a_writable_base_is_copied(self):
        base = np.zeros((3, 3), dtype=complex)
        view = base.view()
        view.setflags(write=False)
        assert view.flags.c_contiguous  # copied for not owning its memory alone
        g = CoeffGrid(1, view)
        assert not np.shares_memory(g.data, base)
        base[1, 1] = 2.0
        assert g.data[1, 1] == 0.0

    def test_read_only_owned_array_is_shared(self):
        a = np.arange(9, dtype=complex).reshape(3, 3).copy()
        a.setflags(write=False)
        g = CoeffGrid(1, a)
        assert np.shares_memory(g.data, a)
        assert CoeffGrid(1, g.data).data is g.data

    @pytest.mark.parametrize("make", [
        lambda: np.asfortranarray(np.ones((3, 3), dtype=complex)),
        lambda: np.ones((3, 3), dtype=np.complex64),
        lambda: np.ones((3, 3)),
    ], ids=["fortran-order", "complex64", "float64"])
    def test_other_read_only_arrays_are_not_aliased(self, make):
        a = make()
        a.setflags(write=False)
        g = CoeffGrid(1, a)
        assert not np.shares_memory(g.data, a) and not g.data.flags.writeable
        assert g.data.dtype == np.complex128 and np.array_equal(g.data, a)


class TestSampleGridCopy:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, np.complex128])
    def test_input_copied_once(self, dtype):
        m = 512
        vals = (np.arange(m * m) % 251).reshape(m, m).astype(dtype)
        gc.collect()
        tracemalloc.start()
        try:
            s = SampleGrid(m, vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = np.complex128 if dtype == np.complex128 else np.float64
        assert s.values.dtype == want and np.array_equal(s.values, vals)
        # one copy of m^2 entries of the stored dtype: 2.1 MB for a real
        # input; converting and then copying again peaked at twice that
        assert peak <= 1.1 * s.values.nbytes, (peak, s.values.nbytes)
        assert not np.shares_memory(s.values, vals) and not s.values.flags.writeable


class TestIsometry:
    """Weighted l2 content is preserved for every radial weight."""

    def norms2(self, grid, wgt):
        return float(np.sum(wgt * np.abs(grid.data) ** 2))

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]))
    @settings(max_examples=150, deadline=None)
    def test_sobolev_weights(self, n, seed, alpha):
        z = random_fourier_real(n, np.random.default_rng(seed))
        wgt = SobolevWeight(alpha).weights(n)
        a = self.norms2(z, wgt)
        b = self.norms2(s_map(z), wgt)
        assert abs(a - b) <= 1e-12 * max(a, b)

    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_radial_weight(self, n, seed):
        rng = np.random.default_rng(seed)
        z = random_fourier_real(n, rng)
        table = rng.uniform(0.1, 10.0, size=2 * n * n + 1)
        wgt = SobolevWeight(profile=lambda r2: table[r2.astype(int)]).weights(n)
        a = self.norms2(z, wgt)
        b = self.norms2(s_map(z), wgt)
        assert abs(a - b) <= 1e-12 * max(a, b)


class TestAnalyze:
    @given(n=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           cplx=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_dft(self, n, seed, cplx):
        m = 2 * n + 1
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((m, m))
        if cplx:
            vals = vals + 1j * rng.standard_normal((m, m))
        z = analyze(SampleGrid(m, vals))
        ref = naive_analyze(np.asarray(vals, dtype=np.complex128))
        assert np.max(np.abs(z.data - ref)) < 1e-13
        assert z.n == n

    def test_even_sample_count_rejected(self):
        with pytest.raises(DimensionError):
            analyze(SampleGrid(4, np.zeros((4, 4))))

    def test_exact_on_low_degree_modes(self):
        # band limit well above the degree: coefficients are exact
        f = SampleGrid.from_function(9, lambda x, y: np.cos(2 * np.pi * x))
        z = analyze(f)
        assert_allclose(z.entry(1, 0), 0.5, atol=1e-15)
        assert_allclose(z.entry(-1, 0), 0.5, atol=1e-15)
        assert abs(z.entry(0, 0)) < 1e-15
        assert fourier_real_deviation(z) < 1e-15

    @given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_coefficients(self, n, seed):
        z = random_general(n, np.random.default_rng(seed))
        back = analyze(synthesize(z))
        assert np.max(np.abs(back.data - z.data)) < 1e-13

    @given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_samples(self, n, seed):
        m = 2 * n + 1
        vals = np.random.default_rng(seed).standard_normal((m, m))
        back = synthesize(analyze(SampleGrid(m, vals)))
        assert np.max(np.abs(back.values - vals)) < 1e-13

    def test_real_field_gives_symmetric_grid(self, rng):
        vals = rng.standard_normal((7, 7))
        z = analyze(SampleGrid(7, vals))
        assert fourier_real_deviation(z) < 1e-14


class TestComplexExtension:
    def test_transform_is_complex_linear(self, rng):
        f = random_fourier_real(4, rng)
        g = random_fourier_real(4, rng)
        c = q_transform(f, g)
        assert c.tag == GENERAL
        assert np.max(np.abs(c.data - (s_map(f).data + 1j * s_map(g).data))) == 0.0

    def test_inverse_recovers_both_parts(self, rng):
        f = random_fourier_real(5, rng)
        g = random_fourier_real(5, rng)
        fb, gb = q_inverse(q_transform(f, g))
        assert np.max(np.abs(fb.data - f.data)) < 1e-14
        assert np.max(np.abs(gb.data - g.data)) < 1e-14

    @given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_from_general_matrix(self, n, seed):
        c = random_general(n, np.random.default_rng(seed))
        back = q_transform(*q_inverse(c))
        assert np.max(np.abs(back.data - c.data)) < 1e-13

    def test_split_parts_are_hermitian(self, rng):
        c = random_general(4, rng)
        a, b = hermitian_split(c)
        assert hermitian_deviation(a) < 1e-14
        assert hermitian_deviation(b) < 1e-14
        assert np.max(np.abs(a.data + 1j * b.data - c.data)) < 1e-14

    def test_real_field_alone_maps_to_hermitian(self, rng):
        f = random_fourier_real(3, rng)
        assert q_transform(f).tag == HERMITIAN

    def test_mismatched_band_limits_rejected(self, rng):
        with pytest.raises(DimensionError, match="band limits differ: 3 vs 4"):
            q_transform(random_fourier_real(3, rng), random_fourier_real(4, rng))
