"""Closed-form flows, the rotating-frame integrator, growth bounds."""

import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qtorus import (
    FOURIER_REAL,
    CoeffGrid,
    EvolveConfig,
    HarmonicSpec,
    LindbladSet,
    SampleGrid,
    SobolevWeight,
    analyze,
    default_dt,
    diagonal_lindblad_closed,
    dissipative_constant,
    drift_oracle,
    evolve_rk4,
    evolve_steps,
    fourier_real_deviation,
    growth_bound,
    growth_factors,
    heisenberg_closed,
    hermitian_deviation,
    index_range,
    linear_lambda,
    lindblad_rhs,
    norm,
    q_inverse,
    q_transform,
    single_entry,
    synthesize,
)
from qtorus.dynamics import MAX_STEPS, _Generator
from qtorus.errors import DimensionError, DomainError, IntegrationError

from helpers import random_fourier_real, random_general, random_hermitian, reference_remainder_rhs


def final(points):
    return points[-1].grid


class TestHarmonicClosedForm:
    def test_single_entry_phase(self):
        # gap h_1 - h_0 = a; at a=1, t=pi/2 the factor is exactly i
        a0 = single_entry(2, 1, 0, 1.0)
        at = heisenberg_closed(a0, HarmonicSpec(a=1.0), np.pi / 2)
        assert_allclose(at.entry(1, 0), 1j, atol=1e-15)

    def test_offset_b_cancels_in_gaps(self, rng):
        a0 = random_hermitian(4, rng)
        t = 0.7
        x = heisenberg_closed(a0, HarmonicSpec(a=2.0, b=0.0), t)
        y = heisenberg_closed(a0, HarmonicSpec(a=2.0, b=11.5), t)
        assert np.max(np.abs(x.data - y.data)) == 0.0

    def test_preserves_hermiticity(self, rng):
        a0 = random_hermitian(5, rng)
        at = heisenberg_closed(a0, HarmonicSpec(a=1.3), 2.1)
        assert hermitian_deviation(at) < 1e-13

    def test_norm_conserved_every_alpha(self, rng):
        a0 = random_hermitian(5, rng)
        at = heisenberg_closed(a0, HarmonicSpec(a=0.9), 5.0)
        for alpha in (0.0, 1.0, 3.0):
            w = SobolevWeight(alpha)
            assert_allclose(norm(at, w), norm(a0, w), rtol=1e-13)


class TestDriftOracle:
    def test_matches_conjugated_closed_form(self, rng):
        f = random_fourier_real(6, rng)
        a, t = 1.7, 0.83
        via_matrix = q_inverse(heisenberg_closed(q_transform(f), HarmonicSpec(a=a), t))[0]
        direct = drift_oracle(f, a, t)
        assert np.max(np.abs(via_matrix.data - direct.data)) < 1e-12

    def test_quarter_period_turns_cosine_into_minus_sine(self):
        # a = 2pi, t = 1/4: x -> x + 1/4, so cos(2pi x) -> -sin(2pi x)
        z = analyze(SampleGrid.from_function(7, lambda x, y: np.cos(2 * np.pi * x)))
        f = CoeffGrid(z.n, z.data, FOURIER_REAL)
        drifted = drift_oracle(f, 2 * np.pi, 0.25)
        target = analyze(SampleGrid.from_function(7, lambda x, y: -np.sin(2 * np.pi * x)))
        assert np.max(np.abs(drifted.data - target.data)) < 1e-14

    def test_transport_on_samples(self):
        m = 9
        def f0(x, y):
            return np.cos(2 * np.pi * (2 * x - y)) + 0.3 * np.sin(2 * np.pi * y)
        z = analyze(SampleGrid.from_function(m, f0))
        f = CoeffGrid(z.n, z.data, FOURIER_REAL)
        a, t = 1.1, 0.6
        v = a * t / (2 * np.pi)
        moved = synthesize(drift_oracle(f, a, t)).values
        expected = SampleGrid.from_function(m, lambda x, y: f0(x + v, y - v)).values
        assert np.max(np.abs(moved - expected)) < 1e-13

    def test_stays_fourier_real(self, rng):
        f = random_fourier_real(4, rng)
        out = drift_oracle(f, 2.2, 1.9)
        assert fourier_real_deviation(out) < 1e-13 * out.scale()


class TestIntegratorHarmonic:
    def test_matches_closed_form(self, rng):
        a0 = random_hermitian(8, rng)
        h = HarmonicSpec(a=2 * np.pi, b=0.5)
        t_end = 1.0
        pts = evolve_rk4(a0, h, None, EvolveConfig(t_end, dt=1e-3, alpha=1.0))
        ref = heisenberg_closed(a0, h, t_end)
        assert np.max(np.abs(final(pts).data - ref.data)) < 1e-10

    def test_norm_flat_along_trajectory(self, rng):
        a0 = random_hermitian(6, rng)
        pts = evolve_rk4(a0, HarmonicSpec(a=3.0), None,
                         EvolveConfig(1.0, dt=1e-3, alpha=1.0, record_every=100))
        norms = np.array([p.alpha_norm for p in pts])
        assert np.max(np.abs(norms - norms[0])) < 1e-10 * norms[0]

    def test_time_grid_lands_on_t_end(self, rng):
        a0 = random_hermitian(2, rng)
        pts = evolve_rk4(a0, HarmonicSpec(a=1.0), None,
                         EvolveConfig(0.35, dt=0.1))
        assert pts[-1].t == pytest.approx(0.35, abs=0)
        # ceil(0.35/0.1) = 4 uniform steps, plus the initial record
        assert len(pts) == 5

    def test_t_end_zero_returns_initial_only(self, rng):
        a0 = random_hermitian(2, rng)
        pts = evolve_rk4(a0, HarmonicSpec(a=1.0), None, EvolveConfig(0.0))
        assert len(pts) == 1
        assert pts[0].t == 0.0
        assert np.max(np.abs(pts[0].grid.data - a0.data)) == 0.0


class TestStreamingCore:
    def test_records_match_the_list_wrapper(self, rng):
        n = 3
        a0 = random_hermitian(n, rng)
        lset = LindbladSet(c=random_hermitian(n, rng, scale=0.2),
                           ls=[random_general(n, rng, scale=0.2)], lam=linear_lambda(0.3, n))
        cfg = EvolveConfig(0.1, dt=1e-2, alpha=1.0, record_every=3)
        for picture in ("heisenberg", "schrodinger"):
            recs = list(evolve_steps(a0, HarmonicSpec(a=1.5), lset, cfg, picture))
            pts = evolve_rk4(a0, HarmonicSpec(a=1.5), lset, cfg, picture)
            assert isinstance(pts, list)
            # steps 3, 6, 9 and the last one (10), after the initial record
            assert [t for t, _, _ in recs] == [p.t for p in pts] == [
                0.0, 3 * 0.01, 6 * 0.01, 9 * 0.01, 10 * 0.01]
            for (t, nrm, data), p in zip(recs, pts):
                assert nrm == p.alpha_norm
                assert np.array_equal(data, p.grid.data)
                assert nrm == norm(p.grid, SobolevWeight(1.0))

    def test_records_are_read_only_and_never_rewritten(self, rng):
        a0 = random_hermitian(2, rng)
        lset = LindbladSet(ls=[random_general(2, rng, scale=0.3)])
        recs = list(evolve_steps(a0, HarmonicSpec(a=1.0), lset, EvolveConfig(0.05, dt=1e-2)))
        assert len({id(data) for _, _, data in recs}) == len(recs)
        for _, _, data in recs:
            assert not data.flags.writeable
        assert np.array_equal(recs[0][2], a0.data)

    def test_trajectory_grids_keep_the_records(self, rng):
        # evolve_rk4 hands each read-only record to its grid, which keeps it
        a0 = random_hermitian(2, rng)
        lset = LindbladSet(ls=[random_general(2, rng, scale=0.3)])
        recs = list(evolve_steps(a0, HarmonicSpec(a=1.0), lset, EvolveConfig(0.05, dt=1e-2)))
        assert all(CoeffGrid(a0.n, data, a0.tag).data is data for _, _, data in recs)
        pts = evolve_rk4(a0, HarmonicSpec(a=1.0), lset, EvolveConfig(0.05, dt=1e-2))
        assert all(not p.grid.data.flags.writeable and p.grid.data.flags.owndata for p in pts)


class TestFloor:
    def test_levels_flatten_below_floor(self):
        h = HarmonicSpec(a=1.0, b=0.25, floor=0)
        lv = h.levels(3)
        assert np.all(lv[:3] == 0.0)
        assert_allclose(lv[3:], [0.25, 1.25, 2.25, 3.25])

    def test_supported_grid_accepted(self):
        a0 = single_entry(3, 1, 2, 1.0)
        h = HarmonicSpec(a=1.0, floor=0)
        at = heisenberg_closed(a0, h, 1.0)
        assert abs(at.entry(1, 2)) == pytest.approx(1.0)

    def test_unsupported_grid_rejected(self):
        a0 = single_entry(3, -2, 1, 1.0)
        with pytest.raises(DomainError):
            heisenberg_closed(a0, HarmonicSpec(a=1.0, floor=0), 1.0)
        with pytest.raises(DomainError):
            evolve_rk4(a0, HarmonicSpec(a=1.0, floor=0), None, EvolveConfig(0.1))

    @pytest.mark.parametrize("k,l", [(2, 1), (-2, 1)])  # above and below the floor
    def test_nan_grid_rejected(self, k, l):
        data = np.array(single_entry(3, 1, 2, 1.0).data)
        data[k + 3, l + 3] = np.nan
        a0 = CoeffGrid(3, data)
        with pytest.raises(DomainError):
            heisenberg_closed(a0, HarmonicSpec(a=1.0, floor=0), 0.1)
        with pytest.raises(DomainError):
            evolve_rk4(a0, HarmonicSpec(a=1.0, floor=0), None, EvolveConfig(0.1))


class TestDiagonalLindblad:
    def test_linear_family_entry_decay(self):
        # lam_n = n: phi at (1,0) is -1/2, so t=2 decays by e^{-1}
        a0 = single_entry(4, 1, 0, 1.0)
        lam = linear_lambda(1.0, 4)
        at = diagonal_lindblad_closed(a0, lam, 2.0)
        assert abs(abs(at.entry(1, 0)) - np.exp(-1.0)) < 1e-14

    def test_diagonal_is_frozen(self, rng):
        a0 = random_hermitian(4, rng)
        lam = linear_lambda(2.0 + 0.5j, 4)
        at = diagonal_lindblad_closed(a0, lam, 3.0)
        assert_allclose(np.diagonal(at.data), np.diagonal(a0.data), rtol=1e-14)

    def test_integrator_matches_closed_form(self, rng):
        n = 6
        a0 = random_hermitian(n, rng)
        lam = linear_lambda(1.0, n)
        lset = LindbladSet(lam=lam)
        pts = evolve_rk4(a0, HarmonicSpec(a=0.0), lset, EvolveConfig(2.0, dt=1e-3))
        ref = diagonal_lindblad_closed(a0, lam, 2.0)
        assert np.max(np.abs(final(pts).data - ref.data)) < 1e-11

    @pytest.mark.parametrize("n", [40, 48, 64])
    @pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
    def test_large_n_matches_closed_form(self, rng, n, picture):
        # default dt resolves the phase gaps only; h |phi| reaches 2 n^2 dt,
        # far outside classical RK4's stability interval, and the step is exact
        a0 = random_hermitian(n, rng)
        lam = linear_lambda(1.0, n)
        h = HarmonicSpec(a=6.283)
        got = final(evolve_rk4(a0, h, LindbladSet(lam=lam), EvolveConfig(0.2), picture)).data
        sign = 1.0 if picture == "heisenberg" else -1.0
        ref = diagonal_lindblad_closed(heisenberg_closed(a0, h, sign * 0.2), lam, 0.2).data
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(a0.data))

    def test_filter_demo_checks_the_stepper_at_large_n(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "lindblad_filter_demo.py"), "--check-rk4",
             "--n", "48", "--times", "0,0.2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        gap = float(re.search(r"max entry gap (\S+)", proc.stdout).group(1))
        assert gap <= 1e-12

    def test_norm_never_increases(self, rng):
        a0 = random_hermitian(5, rng)
        lam = linear_lambda(1.0, 5)
        w = SobolevWeight(1.0)
        times = [0.0, 0.5, 1.0, 2.0, 10.0]
        norms = [norm(diagonal_lindblad_closed(a0, lam, t), w) for t in times]
        assert all(x >= y - 1e-12 for x, y in zip(norms, norms[1:]))

    def test_long_time_limit_keeps_only_diagonal(self, rng):
        n = 5
        alpha = 1.0
        f = random_fourier_real(n, rng)
        a0 = q_transform(f)
        lam = linear_lambda(1.0, n)
        at = diagonal_lindblad_closed(a0, lam, 50.0)
        idx = index_range(n).astype(float)
        fdiag = np.diagonal(f.data)
        limit2 = float(np.sum((1.0 + 2.0 * idx**2) ** alpha * np.abs(fdiag) ** 2))
        assert abs(norm(at, SobolevWeight(alpha)) ** 2 - limit2) < 1e-12

    def test_equal_rates_are_inert(self, rng):
        a0 = random_hermitian(3, rng)
        lam = np.full(7, 1.5 + 2.0j)
        at = diagonal_lindblad_closed(a0, lam, 4.0)
        assert np.max(np.abs(at.data - a0.data)) < 1e-13

    def test_hermiticity_preserved(self, rng):
        a0 = random_hermitian(4, rng)
        at = diagonal_lindblad_closed(a0, linear_lambda(1.0 + 1.0j, 4), 1.5)
        assert hermitian_deviation(at) < 1e-13

    def test_negative_time_rejected(self, rng):
        a0 = random_hermitian(2, rng)
        with pytest.raises(DomainError):
            diagonal_lindblad_closed(a0, linear_lambda(1.0, 2), -0.1)

    def test_length_mismatch_rejected(self, rng):
        a0 = random_hermitian(2, rng)
        with pytest.raises(DimensionError):
            diagonal_lindblad_closed(a0, linear_lambda(1.0, 3), 1.0)


class TestGeneralDissipator:
    @pytest.mark.parametrize("make", [
        lambda rng: LindbladSet(lam=np.ones(4)),
        lambda rng: LindbladSet(c=random_hermitian(2, rng), ls=[random_general(3, rng)]),
        lambda rng: LindbladSet(c=random_hermitian(2, rng), ls=[random_general(2, rng)],
                                lam=linear_lambda(1.0, 3)),
    ], ids=["even-lambda", "mixed-band-limits", "lambda-third-band-limit"])
    def test_bad_sizes_rejected(self, rng, make):
        with pytest.raises(DimensionError):
            make(rng)

    @pytest.mark.parametrize("picture, sign", [("heisenberg", 1), ("schrodinger", -1)])
    @pytest.mark.parametrize("with_lambda", [False, True])
    def test_without_c_or_l_the_rhs_is_the_entrywise_rate(self, rng, picture, sign,
                                                          with_lambda):
        n = 3
        data = random_general(n, rng).data.copy()
        data[:, 2] = -0.0  # -0.0 products that the zero remainder turns into +0.0
        a = CoeffGrid(n, data)
        h = HarmonicSpec(a=1.5, b=0.25)
        lset = LindbladSet(lam=linear_lambda(0.7, n)) if with_lambda else None
        rate = (sign * 1j) * h.gaps(n)
        if with_lambda:
            phi = lset.phi_matrix()
            rate = rate + (phi if sign > 0 else np.conj(phi))
        assert np.signbit((rate * data).view(np.float64)[:, 4:6]).any()
        got = lindblad_rhs(a, h, lset, picture=picture).data
        assert got.tobytes() == (rate * data + 0.0).tobytes()
        assert not np.signbit(got.view(np.float64)[:, 4:6]).any()

    def test_identity_is_fixed(self, rng):
        n = 4
        eye = CoeffGrid(n, np.eye(2 * n + 1, dtype=complex))
        lset = LindbladSet(c=random_hermitian(n, rng),
                           ls=[random_hermitian(n, rng),
                               CoeffGrid(n, rng.standard_normal((9, 9)) * 0.3)],
                           lam=linear_lambda(0.7, n))
        rhs = lindblad_rhs(eye, HarmonicSpec(a=1.0), lset)
        assert np.max(np.abs(rhs.data)) < 1e-13

    def test_trace_preserved_in_state_picture(self, rng):
        n = 3
        rho = random_hermitian(n, rng)
        lset = LindbladSet(ls=[CoeffGrid(n, rng.standard_normal((7, 7)) * 0.5)])
        rhs = lindblad_rhs(rho, HarmonicSpec(a=1.0), lset, picture="schrodinger")
        assert abs(np.trace(rhs.data)) < 1e-13

    def test_hermiticity_along_flow(self, rng):
        n = 3
        a0 = random_hermitian(n, rng)
        lset = LindbladSet(c=random_hermitian(n, rng, scale=0.4),
                           ls=[random_hermitian(n, rng, scale=0.4)],
                           lam=linear_lambda(0.5, n))
        pts = evolve_rk4(a0, HarmonicSpec(a=1.0), lset,
                         EvolveConfig(1.0, dt=1e-3, record_every=200))
        for p in pts:
            assert hermitian_deviation(p.grid) < 1e-10

    def test_pictures_are_adjoint(self, rng):
        # d/dt tr(rho A): generator moved to either side gives the same number
        n = 3
        a = random_hermitian(n, rng)
        rho = random_hermitian(n, rng)
        lset = LindbladSet(c=random_hermitian(n, rng),
                           ls=[random_hermitian(n, rng)],
                           lam=linear_lambda(0.9, n))
        h = HarmonicSpec(a=1.4)
        heis = lindblad_rhs(a, h, lset, picture="heisenberg")
        schr = lindblad_rhs(rho, h, lset, picture="schrodinger")
        x = np.trace(rho.data @ heis.data)
        y = np.trace(schr.data @ a.data)
        assert abs(x - y) < 1e-11 * max(abs(x), 1.0)

    @pytest.mark.parametrize("picture,sign", [("heisenberg", 1.0), ("schrodinger", -1.0)])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_generator_matches_term_by_term_reference(self, rng, n, picture, sign):
        a = random_general(n, rng)
        lset = LindbladSet(c=random_hermitian(n, rng, scale=0.7),
                           ls=[random_general(n, rng, scale=0.4),
                               random_general(n, rng, scale=0.3)],
                           lam=linear_lambda(0.8 - 0.3j, n))
        h = HarmonicSpec(a=1.3, b=0.2)
        got = lindblad_rhs(a, h, lset, picture=picture).data
        got = got - (sign * 1j) * h.gaps(n) * a.data
        want = reference_remainder_rhs(a.data, lset, sign)
        fro = np.linalg.norm
        scale = fro(a.data) * (2 * fro(lset.c.data) + 2 * sum(fro(l.data) ** 2 for l in lset.ls)
                               + np.max(np.abs(lset.phi_matrix())))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("picture,sign", [("heisenberg", 1.0), ("schrodinger", -1.0)])
    @pytest.mark.parametrize("n_ls", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_hermitian_body_matches_term_by_term_reference(self, rng, n, n_ls, picture, sign):
        a = random_hermitian(n, rng)
        lset = LindbladSet(c=random_hermitian(n, rng, scale=0.7),
                           ls=[random_general(n, rng, scale=0.4) for _ in range(n_ls)])
        got = _Generator(HarmonicSpec(a=1.3), lset, n, picture).remainder(a.data, hermitian=True)
        want = reference_remainder_rhs(a.data, lset, sign)
        fro = np.linalg.norm
        scale = fro(a.data) * (2 * fro(lset.c.data) + 2 * sum(fro(l.data) ** 2 for l in lset.ls))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert np.array_equal(got, np.conj(got.T))

    @pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
    @pytest.mark.parametrize("n_ls", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 4])
    def test_both_finishes_agree_on_hermitian_data(self, rng, n, n_ls, picture):
        a = random_hermitian(n, rng)
        assert np.array_equal(a.data, np.conj(a.data.T))
        lset = LindbladSet(c=random_hermitian(n, rng, scale=0.7),
                           ls=[random_general(n, rng, scale=0.4) for _ in range(n_ls)])
        gen = _Generator(HarmonicSpec(a=1.3), lset, n, picture)
        herm, general = gen.remainder(a.data, hermitian=True), gen.remainder(a.data)
        fro = np.linalg.norm
        scale = fro(a.data) * (2 * fro(lset.c.data) + 2 * sum(fro(l.data) ** 2 for l in lset.ls))
        assert np.max(np.abs(herm - general)) <= 1e-13 * scale

    def test_phi_matrix_built_once_per_run(self, rng, monkeypatch):
        calls = []
        phi_matrix = LindbladSet.phi_matrix

        def counted(self):
            calls.append(1)
            return phi_matrix(self)

        monkeypatch.setattr(LindbladSet, "phi_matrix", counted)
        n = 3
        lset = LindbladSet(ls=[random_general(n, rng, scale=0.3)], lam=linear_lambda(0.5, n))
        pts = evolve_rk4(random_hermitian(n, rng), HarmonicSpec(a=1.0), lset,
                         EvolveConfig(0.01, dt=1e-3))
        assert len(pts) == 11
        assert len(calls) <= 1

    def test_lambda_only_run_never_calls_the_remainder(self, rng, monkeypatch):
        def refuse(self, ad, hermitian=False):
            raise AssertionError("remainder called on a lambda-only run")

        monkeypatch.setattr(_Generator, "remainder", refuse)
        n = 3
        lset = LindbladSet(lam=linear_lambda(0.5, n))
        for picture in ("heisenberg", "schrodinger"):
            for a0 in (random_hermitian(n, rng), random_general(n, rng)):
                pts = evolve_rk4(a0, HarmonicSpec(a=1.0), lset,
                                 EvolveConfig(0.01, dt=1e-3), picture)
                assert len(pts) == 11

    @pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_stepper_picks_the_body_from_the_data(self, rng, monkeypatch, n, picture):
        calls = []
        body = _Generator.remainder

        def counted(self, ad, hermitian=False):
            calls.append(hermitian)
            return body(self, ad, hermitian)

        monkeypatch.setattr(_Generator, "remainder", counted)
        lset = LindbladSet(c=random_hermitian(n, rng, scale=0.4),
                           ls=[random_general(n, rng, scale=0.3),
                               random_general(n, rng, scale=0.2)],
                           lam=linear_lambda(0.5, n))
        h, cfg = HarmonicSpec(a=1.3, b=0.2), EvolveConfig(0.01, dt=1e-3)
        herm = random_hermitian(n, rng)
        # bitwise Hermitian data takes the Hermitian finish whatever the tag,
        # and every record stays bitwise Hermitian
        for a0 in (herm, CoeffGrid(n, herm.data)):
            calls.clear()
            pts = evolve_rk4(a0, h, lset, cfg, picture)
            assert calls == [True] * 40
            assert all(np.array_equal(p.grid.data, np.conj(p.grid.data.T)) for p in pts)
        # a general grid, or a Hermitian-tagged one off by an ulp, takes the general finish
        nudged = herm.data.copy()
        nudged[0, -1] = np.nextafter(nudged[0, -1].real, np.inf) + 1j * nudged[0, -1].imag
        for a0 in (random_general(n, rng), CoeffGrid(n, nudged, herm.tag)):
            calls.clear()
            evolve_rk4(a0, h, lset, cfg, picture)
            assert calls == [False] * 40

    @pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_complex_lambda_keeps_hermitian_runs_exact(self, rng, n, picture):
        lset = LindbladSet(c=random_hermitian(n, rng, scale=0.4),
                           ls=[random_general(n, rng, scale=0.3),
                               random_general(n, rng, scale=0.2)],
                           lam=linear_lambda(0.5 - 0.2j, n))
        phi = lset.phi_matrix()
        assert np.array_equal(phi, np.conj(phi.T))
        pts = evolve_rk4(random_hermitian(n, rng), HarmonicSpec(a=1.3, b=0.2), lset,
                         EvolveConfig(0.01, dt=1e-3), picture)
        assert len(pts) == 11
        assert all(np.array_equal(p.grid.data, np.conj(p.grid.data.T)) for p in pts)

    @pytest.mark.parametrize("c", [1.0, -0.3])
    def test_real_lambda_phi_is_the_plain_product(self, c):
        lam = linear_lambda(c, 6)
        a2 = np.abs(lam) ** 2
        want = np.conj(lam)[:, None] * lam[None, :] - 0.5 * (a2[:, None] + a2[None, :])
        np.fill_diagonal(want, 0.0)
        assert LindbladSet(lam=lam).phi_matrix().tobytes() == want.tobytes()

    def test_sets_compare_by_identity(self):
        one = LindbladSet(lam=linear_lambda(0.5, 2))
        other = LindbladSet(lam=linear_lambda(0.5, 2))
        assert one == one
        assert not one == other
        assert one != other

    def test_band_limit_mismatch_rejected(self, rng):
        a0 = random_hermitian(3, rng)
        lset = LindbladSet(lam=linear_lambda(1.0, 4))
        with pytest.raises(DimensionError):
            evolve_rk4(a0, HarmonicSpec(a=1.0), lset, EvolveConfig(0.1))

    @pytest.mark.parametrize("picture", ["Heisenberg", "interaction", ""])
    def test_unknown_picture_is_domain_error(self, rng, picture):
        a0 = random_hermitian(2, rng)
        lset = LindbladSet(ls=[random_general(2, rng, scale=0.3)])
        h = HarmonicSpec(a=1.0)
        with pytest.raises(DomainError, match="unknown picture"):
            lindblad_rhs(a0, h, lset, picture=picture)
        with pytest.raises(DomainError, match="unknown picture"):
            next(evolve_steps(a0, h, lset, EvolveConfig(0.01), picture))
        with pytest.raises(DomainError, match="unknown picture"):
            evolve_rk4(a0, h, None, EvolveConfig(0.01), picture)


class TestIntegratorGuards:
    def test_blowup_raises(self, rng):
        a0 = random_hermitian(3, rng)
        lset = LindbladSet(ls=[random_general(3, rng, scale=30.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow en route
            with pytest.raises(IntegrationError):
                evolve_rk4(a0, HarmonicSpec(a=0.0), lset, EvolveConfig(100.0, dt=1.0))

    def test_stable_lambda_step_still_runs(self, rng):
        n = 40
        a0 = random_hermitian(n, rng)
        pts = evolve_rk4(a0, HarmonicSpec(a=0.0), LindbladSet(lam=linear_lambda(1.0, n)),
                         EvolveConfig(0.02, dt=8e-4))
        # exp(h phi) has modulus <= 1, so no mode grows
        assert np.all(np.abs(final(pts).data) <= np.abs(a0.data) * (1 + 1e-12))

    def test_step_count_over_cap_refused_before_first_record(self, rng):
        a0 = random_hermitian(1, rng)
        steps = evolve_steps(a0, HarmonicSpec(a=0.0), None,
                             EvolveConfig(1e-3 * (MAX_STEPS + 1), dt=1e-3))
        with pytest.raises(DomainError, match="steps, more than"):
            next(steps)
        # at the cap itself the run starts
        steps = evolve_steps(a0, HarmonicSpec(a=0.0), None,
                             EvolveConfig(float(MAX_STEPS), dt=1.0))
        assert next(steps)[0] == 0.0

    def test_unresolved_gap_warns(self, rng):
        a0 = random_hermitian(4, rng)
        with pytest.warns(RuntimeWarning):
            evolve_rk4(a0, HarmonicSpec(a=10.0), None, EvolveConfig(0.5, dt=0.5))

    def test_default_dt_resolves_gap(self):
        h = HarmonicSpec(a=2 * np.pi)
        n = 16
        dt = default_dt(h, n)
        gap = 2 * np.pi * 2 * n
        assert dt * gap <= 0.5
        assert default_dt(HarmonicSpec(a=0.0), 4) == 1e-3

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EvolveConfig(-1.0)
        with pytest.raises(DomainError):
            EvolveConfig(1.0, dt=0.0)
        with pytest.raises(DomainError):
            EvolveConfig(1.0, record_every=0)
        with pytest.raises(DomainError, match="record_every must be an integer >= 1"):
            EvolveConfig(1.0, record_every=2.5)


class TestGrowthBounds:
    def test_constant_assembles_all_parts(self, rng):
        n = 3
        c = random_hermitian(n, rng)
        l1 = random_hermitian(n, rng)
        lam = linear_lambda(0.5, n)
        w = SobolevWeight(1.0)
        lset = LindbladSet(c=c, ls=[l1], lam=lam)
        idx = index_range(n).astype(float)
        lam_term = float(np.sum((1 + 2 * idx**2) * np.abs(lam) ** 2))
        expected = 4 * norm(c, w) + 4 * norm(l1, w) ** 2 + 4 * lam_term
        assert_allclose(dissipative_constant(1.0, lset), expected, rtol=1e-13)

    def test_factor_values_at_unit_exponent(self):
        lset = LindbladSet()
        gb = growth_bound(0.0, lset, 5.0)
        assert gb.c == 0.0
        assert gb.pure_factor == 1.0
        assert gb.full_factor == 1.0

    def test_pure_factor_is_exponential(self, rng):
        lset = LindbladSet(ls=[random_hermitian(2, rng)])
        t = 0.37
        gb = growth_bound(1.0, lset, t)
        assert_allclose(gb.pure_factor, np.exp(gb.c * t), rtol=1e-14)
        assert_allclose(
            gb.full_factor,
            1.0 + np.sqrt(gb.c * t * (np.exp(2 * gb.c * t) - 1.0)) / (2 * np.sqrt(2)),
            rtol=1e-14)

    def test_factors_at_time_zero_are_one(self):
        for c in (0.0, 2.5, float("inf")):
            assert growth_factors(c, 0.0) == (1.0, 1.0)
        assert all(np.isnan(f) for f in growth_factors(float("nan"), 0.0))

    def test_negative_arguments_rejected(self):
        with pytest.raises(DomainError):
            growth_bound(-1.0, LindbladSet(), 1.0)
        with pytest.raises(DomainError):
            growth_bound(0.0, LindbladSet(), -1.0)

    def test_trajectory_stays_below_bounds(self, rng):
        # mixed generator vs the full factor; pure dissipative vs exp(ct)
        alpha = 1.0
        w = SobolevWeight(alpha)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a0 = random_hermitian(n, rng)
            scale = 0.3 / (n + 1)
            lset = LindbladSet(c=random_hermitian(n, rng, scale=scale),
                               ls=[random_hermitian(n, rng, scale=scale)],
                               lam=linear_lambda(scale, n))
            t_end = float(rng.uniform(0.1, 1.0))
            n0 = norm(a0, w)
            pts = evolve_rk4(a0, HarmonicSpec(a=1.0), lset,
                             EvolveConfig(t_end, dt=1e-3, alpha=alpha, record_every=50))
            for p in pts:
                cap = growth_bound(alpha, lset, p.t).full_factor * n0
                assert p.alpha_norm <= cap * (1 + 1e-9)
            pts = evolve_rk4(a0, HarmonicSpec(a=0.0), lset,
                             EvolveConfig(t_end, dt=1e-3, alpha=alpha, record_every=50))
            for p in pts:
                cap = growth_bound(alpha, lset, p.t).pure_factor * n0
                assert p.alpha_norm <= cap * (1 + 1e-9)
