"""Zero tables, phase averages, and the broadband recovery routes.

The 100-ordinate fixture under data/ is enough for every functional
check; trend assertions against the large table live in the acceptance
module.
"""

import io
import math
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qtorus import (
    FOURIER_REAL,
    GENERAL,
    CoeffGrid,
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
    random_fourier_real,
    random_general,
    random_hermitian,
    sequential_per_zero_average,
    sequential_phase_average,
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


class TestBlockAveraging:
    @pytest.mark.parametrize("count", [100, 256, 257, 1000])
    def test_prefix_independent_of_other_counts(self, zeros10k, count):
        taus = zeros10k.ordinates
        alone = phase_average(taus[:count], PHASE_ARGS)
        shared = redundancy._phase_means(taus, PHASE_ARGS, [10, 100, count, 10000])
        assert np.array_equal(alone, shared[2])
        assert np.array_equal(
            redundancy._phase_means(taus, PHASE_ARGS, [count])[0], shared[2])

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
        with pytest.raises(EmptyRangeError):
            broadband_average_2d(f, 3.0, zeros100, 10.0)


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
        with pytest.raises(DomainError):
            c_d(1, 3.0, zeros100, 100.0)


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

    @pytest.mark.parametrize("shape", [(4,), (3, 3)], ids=["even-length", "2-d"])
    def test_rejects_a_vector_not_of_odd_length(self, zeros100, shape):
        with pytest.raises(DimensionError, match="odd length"):
            broadband_average_1d(np.zeros(shape, dtype=complex), 3.0, zeros100, 100.0)


class TestNonFiniteSigma:
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_library_routes_reject(self, zeros100, rng, sigma):
        f = random_fourier_real(2, rng)
        with pytest.raises(DomainError):
            broadband_average_1d(f.data[:, 2].copy(), sigma, zeros100, 100.0)
        with pytest.raises(DomainError):
            broadband_average_2d(f, sigma, zeros100, 100.0)
        with pytest.raises(DomainError):
            broadband_average_2d_counts(f, sigma, zeros100, [10])
        with pytest.raises(DomainError):
            broadband_average_2d_per_zero(f, sigma, zeros100, 100.0)

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_cli_exits_with_data_error(self, tmp_path, rng, capsys, sigma):
        field = tmp_path / "f.json"
        write_grid(field, random_fourier_real(3, rng))
        out = tmp_path / "o.csv"
        code = run(["redundancy", "--field", str(field), "--sigma", sigma,
                    "--zeros", str(DATA / "zeta_zeros_100.txt"), "--counts", "10",
                    "--out", str(out)])
        assert code == 2
        assert "finite sigma > 1" in capsys.readouterr().err
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

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    @pytest.mark.parametrize("count", [1, 7, 255, 256, 257, 600])
    def test_matches_sequential_fold(self, zeros10k, n, count):
        f = random_fourier_real(n, np.random.default_rng(1000 * n + count))
        t = zeros10k.t_covering(count)
        batched = broadband_average_2d_per_zero(f, 2.5, zeros10k, t)
        slow = sequential_per_zero_average(f, 2.5, zeros10k.ordinates[:count])
        assert np.max(np.abs(batched.data - slow)) <= 1e-13 * f.scale()


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


def test_sweep_script_prints_one_row_per_cell():
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "redundancy_sweep.py"),
         "--zeros", str(root / "data" / "zeta_zeros_100.txt"), "--field", "random4",
         "--n", "5", "--sigmas", "2,3", "--counts", "1,10,100"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "field,sigma,zero_count,T,l2_error,hs_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], float(r[1]), int(r[2])) for r in rows] == [
        ("random4", s, c) for s in (2.0, 3.0) for c in (1, 10, 100)]
    assert all(math.isfinite(float(v)) for r in rows for v in r[3:])


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
    assert out.read_text().startswith(first)  # the 5 entries stay; 2 are appended
    table = load_zero_table(out)
    assert table.count == 7
    shipped = load_zero_table(DATA / "zeta_zeros_100.txt")
    assert table.ordinates[:5].tobytes() == shipped.ordinates[:5].tobytes()
    assert np.all(np.diff(table.ordinates) > 0)
