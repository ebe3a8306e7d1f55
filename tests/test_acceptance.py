"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Run as part of the normal suite, or alone:

    pytest tests/test_acceptance.py -q

Each test prints ``ACCEPTANCE <k> PASS|FAIL ...`` on the real stdout so
the verdicts survive pytest's capture. Stated runtime budgets are
asserted, not just reported.
"""

import os
import time

import numpy as np

from qtorus import (
    FOURIER_REAL,
    GENERAL,
    ArithmeticSeq,
    CoeffGrid,
    EvolveConfig,
    HarmonicSpec,
    LindbladSet,
    SampleGrid,
    SobolevWeight,
    analyze,
    apply_D,
    apply_D_inv,
    broadband_average_1d,
    broadband_average_2d,
    broadband_average_2d_per_zero,
    averaging_errors,
    c_d,
    commutator_pairing,
    diagonal_lindblad_closed,
    dirichlet_convolve,
    dirichlet_inverse,
    drift_oracle,
    estimated_operator_norm,
    evolve_rk4,
    growth_bound,
    heisenberg_closed,
    linear_lambda,
    load_zero_table,
    moebius,
    norm,
    op_commutator,
    operator_norm_bound,
    q_inverse,
    q_transform,
    s_inv,
    s_map,
    synthesize,
    unit_sequence,
)

from conftest import DATA
from helpers import random_fourier_real, random_general, random_hermitian

ZERO_TABLE_PATH = DATA / "zeta_zeros_10k.txt"


def gate(num, budget=None):
    """Time the criterion body and print one verdict line.

    The wrapper takes capsys so the verdict bypasses capture; criterion
    bodies themselves take no arguments.
    """
    def deco(fn):
        def wrapper(capsys):
            t0 = time.perf_counter()
            try:
                detail = fn()
                elapsed = time.perf_counter() - t0
                if budget is not None and elapsed >= budget:
                    raise AssertionError(
                        "runtime %.2fs exceeds %.0fs budget" % (elapsed, budget))
            except BaseException as exc:
                elapsed = time.perf_counter() - t0
                with capsys.disabled():
                    print("ACCEPTANCE %-2d FAIL %s [%.2fs]" % (num, exc, elapsed),
                          flush=True)
                raise
            with capsys.disabled():
                print("ACCEPTANCE %-2d PASS %s [%.2fs]" % (num, detail, elapsed),
                      flush=True)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


def _rel_gap(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


@gate(1, budget=10)
def test_01_rearrangement_isometry():
    rng = np.random.default_rng(101)
    sizes = (1, 4, 16, 64)
    alphas = (0.5, 1.0, 2.0, -1.0)
    worst = 0.0
    for i in range(1000):
        n = sizes[i % 4]
        f = random_fourier_real(n, rng)
        w = s_map(f)
        u = rng.uniform(-1.0, 1.0)
        v = rng.uniform(0.1, 2.0)
        weights = (
            SobolevWeight(0.0),
            SobolevWeight(alphas[i % 4]),
            SobolevWeight(profile=lambda r2, u=u, v=v: v + (1.0 + r2) ** u),
        )
        for wt in weights:
            a2 = norm(f, wt) ** 2
            b2 = norm(w, wt) ** 2
            gap = abs(a2 - b2) / a2
            worst = max(worst, gap)
            assert gap <= 1e-12
    return "isometry on 1000 grids, 3 weight families: worst rel gap %.2e (limit 1e-12)" % worst


@gate(2, budget=30)
def test_02_round_trips():
    rng = np.random.default_rng(202)
    sizes = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
    worst = {"s": 0.0, "q": 0.0, "fft": 0.0, "D": 0.0}

    for i in range(500):
        n = sizes[i % len(sizes)]
        f = random_fourier_real(n, rng)
        worst["s"] = max(worst["s"], _rel_gap(s_inv(s_map(f)).data, f.data))
        w = random_hermitian(n, rng)
        worst["s"] = max(worst["s"], _rel_gap(s_map(s_inv(w)).data, w.data))

        g = random_fourier_real(n, rng)
        f2, g2 = q_inverse(q_transform(f, g))
        worst["q"] = max(worst["q"], _rel_gap(f2.data, f.data),
                         _rel_gap(g2.data, g.data))

        m = 2 * n + 1
        s = SampleGrid(m, rng.normal(size=(m, m)))
        worst["fft"] = max(worst["fft"],
                           _rel_gap(synthesize(analyze(s)).values, s.values))

    lmaxes = (8, 16, 32, 64)
    for i in range(500):
        lmax = lmaxes[i % 4]
        d = np.arange(lmax + 1, dtype=float)
        d[0] = 1.0
        a = (rng.normal(size=lmax + 1) + 1j * rng.normal(size=lmax + 1)) * 0.5 / d**2
        a[0], a[1] = 0.0, 1.0
        seq = ArithmeticSeq(a)
        x = rng.normal(size=lmax + 1) + 1j * rng.normal(size=lmax + 1)
        worst["D"] = max(worst["D"],
                         _rel_gap(apply_D_inv(seq, apply_D(seq, x)), x),
                         _rel_gap(apply_D(seq, apply_D_inv(seq, x)), x))

    assert all(v <= 1e-12 for v in worst.values()), worst
    return ("round trips x500: rearrange %.1e, matrix encode %.1e, "
            "sample/coeff %.1e, divisor window %.1e (limit 1e-12)"
            % (worst["s"], worst["q"], worst["fft"], worst["D"]))


@gate(3, budget=60)
def test_03_submultiplicative_norms():
    rng = np.random.default_rng(303)
    sizes = (2, 5, 9, 17, 32)
    worst = 0.0
    for i in range(500):
        n = sizes[i % 5]
        a = random_general(n, rng)
        b = random_general(n, rng)
        ab = CoeffGrid(n, a.data @ b.data, GENERAL)
        comm = op_commutator(a, b)
        for alpha in (0.0, 0.5, 1.0, 2.0):
            wt = SobolevWeight(alpha)
            na, nb = norm(a, wt), norm(b, wt)
            slack_ab = norm(ab, wt) - na * nb
            slack_comm = norm(comm, wt) - 2.0 * na * nb
            worst = max(worst, slack_ab, slack_comm)
            assert slack_ab <= 1e-10
            assert slack_comm <= 1e-10
    return ("product and bracket norm bounds on 500 pairs x 4 weights: "
            "worst slack %.2e (limit 1e-10)" % worst)


@gate(4)
def test_04_imaginary_pairing():
    rng = np.random.default_rng(404)
    sizes = (2, 3, 5, 8, 13)
    worst = 0.0
    for i in range(500):
        n = sizes[i % 5]
        h = random_hermitian(n, rng)
        a = random_hermitian(n, rng)
        wt = SobolevWeight((0.0, 0.5, 1.0, 2.0)[i % 4])
        bound = norm(h, wt) * norm(a, wt) ** 2
        ratio = abs(commutator_pairing(h, a, wt).real) / bound
        worst = max(worst, ratio)
        assert ratio <= 1e-10
    return ("pairing with a Hermitian bracket is imaginary on 500 pairs: "
            "worst |Re|/bound %.2e (limit 1e-10)" % worst)


@gate(5, budget=60)
def test_05_harmonic_oracle():
    rng = np.random.default_rng(505)
    n = 16
    f = random_fourier_real(n, rng)
    a0 = q_transform(f)
    h = HarmonicSpec(2.0 * np.pi)
    t_end = 1.0

    traj = evolve_rk4(a0, h, None, EvolveConfig(t_end, dt=1e-3, alpha=1.0,
                                                record_every=10))
    closed = heisenberg_closed(a0, h, t_end)
    stepper_gap = float(np.max(np.abs(traj[-1].grid.data - closed.data)))
    assert stepper_gap <= 1e-8

    oracle_gap = 0.0
    for t in (0.25, 0.5, 1.0):
        via_matrix = q_inverse(heisenberg_closed(a0, h, t))[0]
        oracle_gap = max(oracle_gap,
                         _rel_gap(drift_oracle(f, h.a, t).data, via_matrix.data))
    assert oracle_gap <= 1e-12

    n0 = traj[0].alpha_norm
    drift = max(abs(pt.alpha_norm - n0) for pt in traj) / n0
    assert drift <= 1e-10
    return ("closed harmonic flow: stepper gap %.1e (limit 1e-8), oracle gap "
            "%.1e (limit 1e-12), norm drift %.1e (limit 1e-10)"
            % (stepper_gap, oracle_gap, drift))


@gate(6)
def test_06_diagonal_lindblad():
    rng = np.random.default_rng(606)
    n = 16
    a0 = q_transform(random_fourier_real(n, rng))
    lam = linear_lambda(1.0, n)
    wt = SobolevWeight(1.0)

    traj = evolve_rk4(a0, HarmonicSpec(0.0), LindbladSet(lam=lam),
                      EvolveConfig(2.0, dt=1e-3, alpha=1.0, record_every=100))
    at = traj[-1].grid
    closed = diagonal_lindblad_closed(a0, lam, 2.0)
    stepper_gap = float(np.max(np.abs(at.data - closed.data)))
    assert stepper_gap <= 1e-8

    decay_gap = abs(at.entry(1, 0) / a0.entry(1, 0) - np.exp(-1.0))
    assert decay_gap <= 1e-10
    exact_gap = abs(closed.entry(1, 0) / a0.entry(1, 0) - np.exp(-1.0))
    assert exact_gap <= 1e-14

    norms = [norm(diagonal_lindblad_closed(a0, lam, t), wt)
             for t in (0.0, 0.5, 1.0, 2.0, 10.0)]
    assert all(x >= y - 1e-12 * norms[0] for x, y in zip(norms, norms[1:]))

    idx = np.arange(-n, n + 1, dtype=float)
    limit2 = float(np.sum((1.0 + 2.0 * idx**2) * np.abs(np.diag(a0.data)) ** 2))
    tail = norm(diagonal_lindblad_closed(a0, lam, 50.0), wt) ** 2
    limit_gap = abs(tail - limit2)
    assert limit_gap <= 1e-6
    return ("diagonal damping: stepper gap %.1e (limit 1e-8), unit decay gap "
            "%.1e (limit 1e-10), norms non-increasing, long-time gap %.1e "
            "(limit 1e-6)" % (stepper_gap, decay_gap, limit_gap))


def _unit_scaled(grid, wt, target):
    return CoeffGrid(grid.n, grid.data * (target / norm(grid, wt)), grid.tag)


@gate(7)
def test_07_growth_bounds():
    rng = np.random.default_rng(707)
    worst_full = 0.0
    worst_pure = 0.0
    for i in range(100):
        n = 2 + i % 11
        alpha = (0.0, 1.0)[i % 2]
        wt = SobolevWeight(alpha)
        a = 0.0 if i % 2 == 0 else float(rng.uniform(0.5, 5.0))

        c_op = None
        if i % 3 != 0:
            c_op = _unit_scaled(random_hermitian(n, rng), wt, 0.3)
        ls = [_unit_scaled(random_general(n, rng), wt, 0.3)
              for _ in range(i % 3)]
        lam = None
        if i % 4 == 0:
            lam = 0.2 * linear_lambda(1.0, n) / n
        lset = LindbladSet(c=c_op, ls=ls, lam=lam)
        if lset.is_empty():
            lset = LindbladSet(ls=[_unit_scaled(random_general(n, rng), wt, 0.3)])

        a0 = q_transform(random_fourier_real(n, rng))
        t_end = float(rng.uniform(0.2, 1.0))
        # resolve the fastest phase gap a*2n so the stepper stays quiet
        dt = min(5e-3, 0.4 / (a * 2 * n)) if a > 0 else 5e-3
        traj = evolve_rk4(a0, HarmonicSpec(a), lset,
                          EvolveConfig(t_end, dt=dt, alpha=alpha,
                                       record_every=10))
        n0 = traj[0].alpha_norm
        for pt in traj:
            gb = growth_bound(alpha, lset, pt.t)
            ratio = pt.alpha_norm / (gb.full_factor * n0)
            worst_full = max(worst_full, ratio)
            assert ratio <= 1.0 + 1e-9
            if a == 0.0:
                pure = pt.alpha_norm / (gb.pure_factor * n0)
                worst_pure = max(worst_pure, pure)
                assert pure <= 1.0 + 1e-9
    return ("growth bounds on 100 random dissipative systems: worst "
            "norm/full-bound %.3f, worst pure-dissipative ratio %.3f "
            "(limit 1)" % (worst_full, worst_pure))


@gate(8)
def test_08_dirichlet_machinery():
    lmax = 10_000
    b = dirichlet_inverse(np.ones(lmax + 1))
    mu = np.array([moebius(k) for k in range(1, lmax + 1)], dtype=float)
    assert np.array_equal(b[1:].real, mu)
    assert not b[1:].imag.any()

    rng = np.random.default_rng(808)
    worst_conv = 0.0
    worst_norm = 0.0
    lmaxes = (16, 64, 256)
    dims = (8, 16, 33)
    for i in range(100):
        m = lmaxes[i % 3]
        d = np.arange(m + 1, dtype=float)
        d[0] = 1.0
        a = (rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)) / d**1.5
        a[0] = 0.0
        a[1] = 1.0 + rng.uniform(0.2, 1.0)
        seq = ArithmeticSeq(a)

        gap = np.max(np.abs(dirichlet_convolve(seq.a, seq.b)
                            - unit_sequence(m)))
        worst_conv = max(worst_conv, float(gap))
        assert gap <= 1e-12

        nd = dims[i % 3]
        est = estimated_operator_norm(seq, nd)
        bound = operator_norm_bound(seq)
        worst_norm = max(worst_norm, est / bound)
        assert est <= bound + 1e-9
    return ("inverse of ones is Moebius to n=10^4 exactly; a*b=unit worst "
            "gap %.1e (limit 1e-12); window norm <= coefficient bound, "
            "worst ratio %.3f" % (worst_conv, worst_norm))


def _entry_grid(n, pairs):
    m = 2 * n + 1
    raw = np.zeros((m, m), dtype=complex)
    for k, l, v in pairs:
        raw[k + n, l + n] = v
    return CoeffGrid(n, raw, FOURIER_REAL)


@gate(9, budget=300)
def test_09_broadband_redundancy():
    assert os.path.exists(ZERO_TABLE_PATH), "zero table missing: %s" % ZERO_TABLE_PATH
    table = load_zero_table(ZERO_TABLE_PATH)
    assert table.count >= 10_000

    n = 16
    rng = np.random.default_rng(909)
    raw4 = random_fourier_real(4, rng).data
    big = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    big[n - 4:n + 5, n - 4:n + 5] = raw4
    fields = [
        ("cos 2pi x", _entry_grid(n, [(1, 0, 0.5), (-1, 0, 0.5)])),
        ("cos 2pi(x+y)", _entry_grid(n, [(1, 1, 0.5), (-1, -1, 0.5)])),
        ("random deg-4", CoeffGrid(n, big, FOURIER_REAL)),
    ]

    t_small = table.t_covering(100)
    t_large = table.t_covering(10_000)
    details = []
    for name, f in fields:
        z_small = broadband_average_2d(f, 3.0, table, t_small)
        z_large = broadband_average_2d(f, 3.0, table, t_large)
        e_small = averaging_errors(z_small, f)
        e_large = averaging_errors(z_large, f)
        assert e_large[0] < e_small[0], name
        assert z_large.entry(0, 0) == f.entry(0, 0), name

        per_zero = broadband_average_2d_per_zero(f, 3.0, table, t_large)
        route_gap = float(np.max(np.abs(per_zero.data - z_large.data)))
        assert route_gap <= 1e-10, name

        assert abs(e_large[0] - e_large[1]) <= 1e-12 * e_large[0], name
        details.append("%s %.3e->%.3e" % (name, e_small[0], e_large[0]))

    fhat = rng.normal(size=9) + 1j * rng.normal(size=9)
    zbar = broadband_average_1d(fhat, 3.0, table, t_large)
    mid = fhat.size // 2  # k = 0 on the centered index line
    assert zbar[mid] == fhat[mid]
    return ("averaging error shrinks from 10^2 to 10^4 ordinates (%s); "
            "index 0 exact; dual routes and dual error metrics agree"
            % "; ".join(details))


@gate(10)
def test_10_decay_of_cd():
    assert os.path.exists(ZERO_TABLE_PATH), "zero table missing: %s" % ZERO_TABLE_PATH
    table = load_zero_table(ZERO_TABLE_PATH)
    t_small = table.t_covering(100)
    t_large = table.t_covering(10_000)

    pairs = []
    for d in (2, 3, 5):
        small = c_d(d, 3.0, table, t_small)
        large = c_d(d, 3.0, table, t_large)
        assert large < small, "d=%d" % d
        pairs.append("c_%d %.2e->%.2e" % (d, small, large))

    # boundedness with no fitted constant: the late-table half of
    # c_d(T) log T never exceeds the early-table half
    counts = (10, 30, 100, 300, 1000, 3000, 10_000)
    for d in (2, 3, 5, 7):
        vals = []
        for count in counts:
            t = table.t_covering(count)
            vals.append(c_d(d, 3.0, table, t) * np.log(t))
        half = len(vals) // 2
        assert max(vals[half:]) <= max(vals[:half]), "d=%d: %r" % (d, vals)
    return ("zero-average coefficients shrink with table depth (%s); "
            "c_d(T) log T non-growing across the table for d in {2,3,5,7}"
            % ", ".join(pairs))
