"""Grid JSON, PGM ingest, atomic writes, and the command-line surface."""

import json
import os
import shutil

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qtorus import (
    FOURIER_REAL,
    GENERAL,
    HERMITIAN,
    CoeffGrid,
    EvolveConfig,
    HarmonicSpec,
    LindbladSet,
    SobolevWeight,
    center_fit,
    drift_oracle,
    evolve_rk4,
    field_commutator,
    fourier_real_deviation,
    grid_from_json,
    grid_to_json,
    growth_bound,
    ingest_pgm,
    linear_lambda,
    norm,
    q_transform,
    read_grid,
    read_pgm,
    require_fourier_real,
    require_hermitian,
    s_map,
    single_entry,
    write_grid,
    write_pgm,
)
from qtorus.cli import run
from qtorus.errors import FormatError, HermiticityError, SymmetryError
from qtorus.gridio import atomic_write_bytes

from conftest import DATA
from helpers import random_fourier_real, random_general, symmetrize_fourier_real


@pytest.fixture
def field_file(tmp_path, rng):
    path = tmp_path / "field.json"
    write_grid(path, random_fourier_real(4, rng))
    return str(path)


class TestGridJson:
    def test_round_trip_exact(self, rng):
        g = random_general(5, rng)
        back = grid_from_json(grid_to_json(g))
        assert np.array_equal(back.data, g.data)
        assert back.n == g.n
        assert back.tag == g.tag

    def test_file_round_trip(self, tmp_path, rng):
        g = random_fourier_real(3, rng)
        path = tmp_path / "g.json"
        write_grid(path, g)
        back = read_grid(path)
        assert np.array_equal(back.data, g.data)
        assert back.tag == FOURIER_REAL

    def test_schema_is_stable(self):
        obj = json.loads(grid_to_json(single_entry(1, 0, 0, 1.5, GENERAL)))
        assert set(obj) == {"n", "tag", "entries"}
        assert obj["n"] == 1
        assert len(obj["entries"]) == 9
        assert obj["entries"][4] == [1.5, 0.0]

    @pytest.mark.parametrize("text", [
        "not json at all",
        "[1, 2, 3]",
        '{"n": 1, "tag": "general"}',
        '{"n": -1, "tag": "general", "entries": []}',
        '{"n": 0.5, "tag": "general", "entries": [[0, 0]]}',
        '{"n": 0, "tag": "bogus", "entries": [[0, 0]]}',
        '{"n": 1, "tag": "general", "entries": [[0, 0]]}',
        '{"n": 0, "tag": "general", "entries": [[0, 0, 0]]}',
        '{"n": 0, "tag": "general", "entries": [7]}',
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            grid_from_json(text)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected(self, value):
        text = '{"n": 0, "tag": "general", "entries": [[0.5, %s]]}' % value
        with pytest.raises(FormatError, match="not finite"):
            grid_from_json(text)


class TestNonFiniteSymmetry:
    def test_nan_fails_symmetry_checks(self, rng):
        data = random_fourier_real(2, rng).data.copy()
        data[1, 3] = np.nan
        with pytest.raises(SymmetryError):
            require_fourier_real(CoeffGrid(2, data, FOURIER_REAL))
        herm = s_map(random_fourier_real(2, rng)).data.copy()
        herm[0, 0] = np.nan
        with pytest.raises(HermiticityError):
            require_hermitian(CoeffGrid(2, herm, HERMITIAN))


class TestPgm:
    def test_ascii_round_trip(self, tmp_path, rng):
        vals = rng.uniform(0, 1, (6, 6))
        path = tmp_path / "img.pgm"
        write_pgm(path, vals, maxval=255)
        img, maxval = read_pgm(path)
        assert maxval == 255
        assert np.max(np.abs(img - vals)) <= 0.5 / 255

    def test_binary_equals_ascii(self, tmp_path, rng):
        vals = rng.uniform(0, 1, (5, 7))
        pa = tmp_path / "a.pgm"
        pb = tmp_path / "b.pgm"
        write_pgm(pa, vals, maxval=255, binary=False)
        write_pgm(pb, vals, maxval=255, binary=True)
        assert np.array_equal(read_pgm(pa)[0], read_pgm(pb)[0])

    def test_sixteen_bit_binary(self, tmp_path, rng):
        vals = rng.uniform(0, 1, (4, 4))
        path = tmp_path / "deep.pgm"
        write_pgm(path, vals, maxval=65535, binary=True)
        img, maxval = read_pgm(path)
        assert maxval == 65535
        assert np.max(np.abs(img - vals)) <= 0.5 / 65535

    def test_sixteen_bit_is_big_endian(self, tmp_path):
        path = tmp_path / "be.pgm"
        atomic_write_bytes(path, b"P5\n1 1\n65535\n" + bytes([0x01, 0x02]))
        img, _ = read_pgm(path)
        assert img[0, 0] == pytest.approx(258 / 65535)

    def test_header_comments_ignored(self, tmp_path):
        path = tmp_path / "c.pgm"
        atomic_write_bytes(path, b"P2\n# note\n2 1 # inline\n255\n7 250\n")
        img, _ = read_pgm(path)
        assert img.shape == (1, 2)
        assert img[0, 1] == pytest.approx(250 / 255)

    @pytest.mark.parametrize("blob", [
        b"P3\n1 1\n255\n0\n",
        b"P2\n1 1\n",
        b"P2\n1 1\n255\n",
        b"P2\n1 1\n70000\n0\n",
        b"P2\n1 1\n255\n300\n",
        b"P5\n2 2\n255\nXY",
        b"P2\n0 1\n255\n\n",
    ])
    def test_malformed_rejected(self, tmp_path, blob):
        path = tmp_path / "bad.pgm"
        atomic_write_bytes(path, blob)
        with pytest.raises(FormatError):
            read_pgm(path)

    @pytest.mark.parametrize("token", [b"nan", b"NaN", b"-nan"])
    def test_non_finite_pixel_rejected(self, tmp_path, capsys, token):
        path = tmp_path / "nan.pgm"
        atomic_write_bytes(path, b"P2\n2 2\n255\n7 " + token + b"\n0 255\n")
        with pytest.raises(FormatError):
            read_pgm(path)
        out = tmp_path / "z.json"
        assert run(["ingest-pgm", "--in", str(path), "--n", "1",
                    "--out", str(out)]) == 2
        assert "not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raster", [b"1.5 2e2", b"7 2e2", b"1.0 7", b"+7 0", b"1_0 7"])
    def test_non_integer_pixel_rejected(self, tmp_path, capsys, raster):
        path = tmp_path / "frac.pgm"
        atomic_write_bytes(path, b"P2\n2 1\n255\n" + raster + b"\n")
        with pytest.raises(FormatError, match="decimal integer"):
            read_pgm(path)
        out = tmp_path / "z.json"
        assert run(["ingest-pgm", "--in", str(path), "--n", "1",
                    "--out", str(out)]) == 2
        assert "decimal integer" in capsys.readouterr().err
        assert not out.exists()


class TestCenterFit:
    def test_crop_keeps_center(self):
        img = np.arange(25.0).reshape(5, 5)
        out = center_fit(img, 3)
        assert np.array_equal(out, img[1:4, 1:4])

    def test_pad_surrounds_with_zeros(self):
        img = np.ones((2, 2))
        out = center_fit(img, 5)
        assert out.shape == (5, 5)
        assert out.sum() == 4.0
        assert np.array_equal(out[1:3, 1:3], img)

    def test_same_size_untouched(self):
        img = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(center_fit(img, 3), img)

    def test_mixed_axes(self):
        img = np.ones((7, 3))
        out = center_fit(img, 5)
        assert out.shape == (5, 5)


class TestIngest:
    def test_flat_image_is_constant_mode(self, tmp_path):
        path = tmp_path / "w.pgm"
        write_pgm(path, np.ones((9, 9)), maxval=255)
        z = ingest_pgm(path, 4)
        assert_allclose(z.entry(0, 0), 1.0, atol=1e-14)
        rest = np.array(z.data)
        rest[4, 4] = 0.0
        assert np.max(np.abs(rest)) < 1e-13

    def test_cosine_image_modes(self, tmp_path):
        # affine [0,1] encoding halves the amplitude: (cos + 1)/2
        m = 33
        x = np.arange(m)[:, None] / m
        img = (np.cos(2 * np.pi * x) + 1.0) / 2.0 * np.ones((1, m))
        path = tmp_path / "cos.pgm"
        write_pgm(path, img, maxval=65535, binary=True)
        z = ingest_pgm(path, (m - 1) // 2)
        q = 0.5 / 65535  # quantization step bound
        assert abs(z.entry(0, 0) - 0.5) <= q
        assert abs(z.entry(1, 0) - 0.25) <= q
        assert abs(z.entry(-1, 0) - 0.25) <= q
        assert fourier_real_deviation(z) < 1e-12

    def test_non_square_warns_and_crops(self, tmp_path, rng):
        path = tmp_path / "wide.pgm"
        write_pgm(path, rng.uniform(0, 1, (5, 9)), maxval=255)
        with pytest.warns(RuntimeWarning, match="not square"):
            z = ingest_pgm(path, 2)
        assert z.n == 2

    def test_small_image_zero_padded(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        write_pgm(path, np.ones((3, 3)), maxval=255)
        z = ingest_pgm(path, 3)
        # 9 bright pixels out of 49: mean is exactly 9/49
        assert_allclose(z.entry(0, 0), 9.0 / 49.0, atol=1e-14)


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path, rng):
        write_grid(tmp_path / "out.json", random_general(2, rng))
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_failed_write_leaves_no_trace(self, tmp_path, monkeypatch, rng):
        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_grid(tmp_path / "out.json", random_general(2, rng))
        assert os.listdir(tmp_path) == []

    def test_overwrite_is_replacement(self, tmp_path, rng):
        path = tmp_path / "out.json"
        a = random_general(2, rng)
        b = random_general(2, rng)
        write_grid(path, a)
        write_grid(path, b)
        assert np.array_equal(read_grid(path).data, b.data)


class TestCliTransforms:
    def test_smap_outputs_hermitian_grid(self, tmp_path, field_file):
        out = str(tmp_path / "w.json")
        assert run(["smap", "--in", field_file, "--out", out]) == 0
        w = read_grid(out)
        assert w.tag == HERMITIAN
        ref = s_map(read_grid(field_file))
        assert np.array_equal(w.data, ref.data)

    def test_manifest_sidecar(self, tmp_path, field_file):
        out = str(tmp_path / "w.json")
        run(["smap", "--in", field_file, "--out", out])
        with open(out + ".manifest.json") as fh:
            m = json.load(fh)
        assert m["inputs"] == [field_file]
        assert m["params"]["command"] == "smap"
        assert m["tool_version"] == "0.1.0"
        assert m["duration_s"] >= 0.0

    def test_outputs_are_deterministic(self, tmp_path, field_file):
        o1 = str(tmp_path / "w1.json")
        o2 = str(tmp_path / "w2.json")
        run(["smap", "--in", field_file, "--out", o1])
        run(["smap", "--in", field_file, "--out", o2])
        with open(o1, "rb") as f1, open(o2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_qtransform_qinverse_round_trip(self, tmp_path, field_file, rng):
        imag = str(tmp_path / "imag.json")
        write_grid(imag, random_fourier_real(4, rng))
        c = str(tmp_path / "c.json")
        assert run(["qtransform", "--field", field_file, "--imag", imag,
                    "--out", c]) == 0
        fr = str(tmp_path / "fr.json")
        fi = str(tmp_path / "fi.json")
        assert run(["qinverse", "--in", c, "--out-real", fr, "--out-imag", fi]) == 0
        assert np.max(np.abs(read_grid(fr).data - read_grid(field_file).data)) < 1e-13
        assert np.max(np.abs(read_grid(fi).data - read_grid(imag).data)) < 1e-13

    def test_commutator_matches_library(self, tmp_path, field_file, rng):
        g = str(tmp_path / "g.json")
        write_grid(g, random_fourier_real(4, rng))
        out = str(tmp_path / "k.json")
        assert run(["commutator", "--f", field_file, "--g", g, "--out", out]) == 0
        ref = field_commutator(read_grid(field_file), read_grid(g))
        assert np.array_equal(read_grid(out).data, ref.data)

    def test_ingest_pgm_command(self, tmp_path):
        img = str(tmp_path / "img.pgm")
        write_pgm(img, np.full((7, 7), 0.5), maxval=255)
        out = str(tmp_path / "z.json")
        assert run(["ingest-pgm", "--in", img, "--n", "3", "--out", out]) == 0
        z = read_grid(out)
        assert z.n == 3
        assert abs(z.entry(0, 0) - 128 / 255) < 1e-12


class TestCliNorms:
    def test_stdout_and_file_agree(self, tmp_path, field_file, capsys):
        out = str(tmp_path / "norms.csv")
        assert run(["norms", "--in", field_file, "--alphas", "0,1,2",
                    "--out", out]) == 0
        captured = capsys.readouterr().out
        with open(out) as fh:
            assert fh.read() == captured
        lines = captured.strip().split("\n")
        assert lines[0] == "alpha,norm"
        grid = read_grid(field_file)
        for line, alpha in zip(lines[1:], (0.0, 1.0, 2.0)):
            a, v = (float(tok) for tok in line.split(","))
            assert a == alpha
            assert v == pytest.approx(norm(grid, SobolevWeight(alpha)), rel=1e-15)

    def test_values_round_trip_text(self, field_file, capsys):
        run(["norms", "--in", field_file, "--alphas", "0.5"])
        line = capsys.readouterr().out.strip().split("\n")[1]
        v = float(line.split(",")[1])
        assert v == norm(read_grid(field_file), SobolevWeight(0.5))

    def test_bad_alpha_list(self, field_file):
        assert run(["norms", "--in", field_file, "--alphas", "1,zap"]) == 1

    @pytest.mark.parametrize("tag,bad", [("fourier-real", float("nan")),
                                         ("general", float("inf"))])
    def test_non_finite_grid_is_data_error(self, tmp_path, rng, capsys, tag, bad):
        entries = [[float(z.real), float(z.imag)]
                   for z in random_fourier_real(2, rng).data.ravel()]
        entries[7][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "tag": tag, "entries": entries}))
        assert run(["norms", "--in", str(path), "--alphas", "0,1"]) == 2
        assert "nan" not in capsys.readouterr().out


class TestCliEvolve:
    def test_closed_flow_matches_drift(self, tmp_path, field_file):
        out = str(tmp_path / "ev.json")
        trace = str(tmp_path / "tr.csv")
        code = run(["evolve", "--field", field_file, "--a", "1.25",
                    "--t", "0.5", "--alpha", "1.0",
                    "--out", out, "--trace", trace])
        assert code == 0
        evolved = read_grid(out)
        ref = drift_oracle(read_grid(field_file), 1.25, 0.5)
        assert np.max(np.abs(evolved.data - ref.data)) < 1e-12

    def test_trace_layout_and_conservation(self, tmp_path, field_file):
        out = str(tmp_path / "ev.json")
        trace = str(tmp_path / "tr.csv")
        run(["evolve", "--field", field_file, "--a", "2.0", "--t", "0.1",
            "--dt", "0.01", "--alpha", "1.0", "--out", out, "--trace", trace])
        with open(trace) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "t,alpha_norm,bound_est_T2,bound_estimate_full"
        rows = [tuple(float(t) for t in line.split(",")) for line in lines[1:]]
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(0.1)
        norms = [r[1] for r in rows]
        assert max(norms) - min(norms) < 1e-12 * norms[0]
        for r in rows:  # closed flow: both bounds stay at the initial norm
            assert r[2] == pytest.approx(norms[0])
            assert r[3] == pytest.approx(norms[0])

    def test_dissipative_trace_decays_under_bounds(self, tmp_path, field_file):
        out = str(tmp_path / "ev.json")
        trace = str(tmp_path / "tr.csv")
        code = run(["evolve", "--field", field_file, "--a", "1.0",
                    "--lambda", "linear:1.0", "--t", "1.0", "--dt", "0.001",
                    "--alpha", "1.0", "--out", out, "--trace", trace])
        assert code == 0
        with open(trace) as fh:
            rows = [tuple(float(t) for t in line.split(","))
                    for line in fh.read().strip().split("\n")[1:]]
        norms = [r[1] for r in rows]
        assert all(x >= y - 1e-12 for x, y in zip(norms, norms[1:]))
        for r in rows:
            assert r[1] <= r[2] * (1 + 1e-12)
            assert r[1] <= r[3] * (1 + 1e-12)

    def test_evolved_field_stays_real(self, tmp_path, field_file):
        out = str(tmp_path / "ev.json")
        trace = str(tmp_path / "tr.csv")
        run(["evolve", "--field", field_file, "--a", "0.7",
            "--lambda", "linear:0.5", "--t", "0.3", "--out", out,
            "--trace", trace])
        z = read_grid(out)
        assert z.tag == FOURIER_REAL
        assert fourier_real_deviation(z) < 1e-10 * z.scale()

    @pytest.mark.parametrize("alpha", ["1.0", "-0.5"])
    def test_trace_bounds_follow_growth_bound(self, tmp_path, field_file, alpha):
        out = str(tmp_path / "ev.json")
        trace = str(tmp_path / "tr.csv")
        assert run(["evolve", "--field", field_file, "--a", "1.0",
                    "--lambda", "linear:0.5", "--t", "0.05", "--dt", "0.01",
                    "--alpha", alpha, "--out", out, "--trace", trace]) == 0
        with open(trace) as fh:
            text = fh.read()
        field = read_grid(field_file)
        lset = LindbladSet(lam=linear_lambda(0.5, field.n))
        traj = evolve_rk4(q_transform(field), HarmonicSpec(1.0), lset,
                          EvolveConfig(0.05, dt=0.01, alpha=float(alpha)))
        # the trace as the formula inlined in the command used to print it
        c = growth_bound(float(alpha), lset, 0.0).c if float(alpha) >= 0 else float("nan")
        norm0 = traj[0].alpha_norm
        expect = ["t,alpha_norm,bound_est_T2,bound_estimate_full"]
        with np.errstate(over="ignore"):
            for pt in traj:
                full = 1.0 + float(np.sqrt(c * pt.t * (np.exp(2.0 * c * pt.t) - 1.0))) / (
                    2.0 * np.sqrt(2.0))
                expect.append(",".join(repr(float(v)) for v in (
                    pt.t, pt.alpha_norm, norm0 * float(np.exp(c * pt.t)), norm0 * full)))
        assert text == "\n".join(expect) + "\n"
        rows = [[float(v) for v in line.split(",")] for line in text.split("\n")[1:-1]]
        assert len(rows) == 6
        for t, _, pure, full in rows:
            if float(alpha) >= 0:
                gb = growth_bound(float(alpha), lset, t)
                assert pure == norm0 * gb.pure_factor
                assert full == norm0 * gb.full_factor
            else:
                assert np.isnan(pure) and np.isnan(full)

    @pytest.mark.parametrize("flag,value", [
        ("--t", "nan"), ("--t", "inf"), ("--dt", "nan"), ("--alpha", "nan"),
        ("--a", "nan"), ("--b", "inf"), ("--lambda", "linear:nan"),
    ])
    def test_non_finite_scalar_is_data_error(self, tmp_path, field_file, capsys,
                                             flag, value):
        args = {"--a": "1.0", "--t": "0.05", "--dt": "0.01"}
        args[flag] = value
        out = tmp_path / "o.json"
        argv = ["evolve", "--field", field_file, "--out", str(out),
                "--trace", str(tmp_path / "t.csv")]
        for key, val in args.items():
            argv += [key, val]
        assert run(argv) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_flag(self):
        assert run(["evolve"]) == 1

    def test_bad_lambda_spec(self, field_file, tmp_path):
        assert run(["evolve", "--field", field_file, "--a", "1", "--t", "1",
                    "--lambda", "quadratic:2",
                    "--out", str(tmp_path / "o.json"),
                    "--trace", str(tmp_path / "t.csv")]) == 1

    def test_floor_violation_is_data_error(self, tmp_path):
        path = str(tmp_path / "low.json")
        raw = np.zeros((9, 9), dtype=complex)
        raw[1, 4] = 1.0  # k = -3 support
        write_grid(path, CoeffGrid(4, symmetrize_fourier_real(raw), FOURIER_REAL))
        assert run(["evolve", "--field", path, "--a", "1", "--floor", "0",
                    "--t", "1", "--out", str(tmp_path / "o.json"),
                    "--trace", str(tmp_path / "t.csv")]) == 2


class TestCliRedundancy:
    def test_sweep_csv(self, tmp_path, field_file):
        out = str(tmp_path / "red.csv")
        zeros = str(DATA / "zeta_zeros_100.txt")
        code = run(["redundancy", "--field", field_file, "--sigma", "3.0",
                    "--zeros", zeros, "--counts", "10,100", "--out", out])
        assert code == 0
        with open(out) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "zero_count,T,l2_error_field,hs_error_operator"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [10, 100]
        errs = [float(r[2]) for r in rows]
        assert errs[1] < errs[0]
        for r in rows:
            assert float(r[2]) == pytest.approx(float(r[3]), rel=1e-10)

    def test_missing_zero_table_beats_missing_field(self, tmp_path):
        # data problem reported even though --field was never given
        assert run(["redundancy", "--counts", "100",
                    "--zeros", str(tmp_path / "absent.txt"),
                    "--out", str(tmp_path / "o.csv")]) == 2

    def test_missing_field_is_usage_error(self, tmp_path, capsys):
        zeros = str(DATA / "zeta_zeros_100.txt")
        code = run(["redundancy", "--counts", "10", "--zeros", zeros,
                    "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "--field is required" in capsys.readouterr().err

    def test_count_beyond_table_is_data_error(self, tmp_path, field_file):
        zeros = str(DATA / "zeta_zeros_100.txt")
        out = tmp_path / "o.csv"
        assert run(["redundancy", "--field", field_file, "--counts", "101",
                    "--zeros", zeros, "--out", str(out)]) == 2
        assert run(["redundancy", "--field", field_file, "--counts", "10,101",
                    "--zeros", zeros, "--out", str(out)]) == 2
        assert not out.exists()

    def test_zero_count_rejected_by_parser(self, tmp_path, field_file):
        zeros = str(DATA / "zeta_zeros_100.txt")
        assert run(["redundancy", "--field", field_file, "--counts", "0",
                    "--zeros", zeros, "--out", str(tmp_path / "o.csv")]) == 1


class TestCliPlumbing:
    def test_no_arguments(self):
        assert run([]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_clean(self):
        assert run(["--help"]) == 0

    def test_missing_input_file(self, tmp_path):
        assert run(["smap", "--in", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "o.json")]) == 2

    def test_corrupt_grid_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(["smap", "--in", str(bad),
                    "--out", str(tmp_path / "o.json")]) == 2

    def test_asymmetric_grid_rejected(self, tmp_path, rng):
        path = str(tmp_path / "gen.json")
        write_grid(path, random_general(3, rng))
        assert run(["smap", "--in", path,
                    "--out", str(tmp_path / "o.json")]) == 2
