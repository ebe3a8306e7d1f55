"""Grid JSON, PGM ingest, atomic writes, and the command-line surface."""

import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
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
    load_zero_table,
    norm,
    q_inverse,
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
from qtorus import cli, redundancy
from qtorus.cli import run
from qtorus.errors import (
    DimensionError,
    DomainError,
    FormatError,
    HermiticityError,
    SymmetryError,
)
from qtorus.gridio import atomic_write_bytes

from conftest import DATA
from helpers import (
    random_fourier_real,
    random_general,
    random_hermitian,
    reference_grid_to_json,
    reference_load_zero_table,
    symmetrize_fourier_real,
)


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
        '{"n": 0, "tag": "general", "entries": [[null, 0]]}',
        '{"n": 0, "tag": "general", "entries": [["abc", 0]]}',
        '{"n": 0, "tag": "general", "entries": [["1.5", 0]]}',
        '{"n": 0, "tag": "general", "entries": [[true, 0]]}',
        '{"n": 0, "tag": "general", "entries": [[0, false]]}',
        '{"n": 0, "tag": "general", "entries": [[{"a": 1}, 0]]}',
        '{"n": 0, "tag": "general", "entries": [[[1], 0]]}',
        '{"n": true, "tag": "general", "entries": [[0, 0], [0, 0], [0, 0], [0, 0], '
        '[0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}',
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            grid_from_json(text)

    @pytest.mark.parametrize("value,kind", [
        ("null", "null"), ('"1.5"', "a string"), ("true", "a boolean"),
        ('{"a": 1}', "an object"), ("[1]", "an array"),
    ])
    def test_non_number_value_names_its_entry(self, value, kind):
        entries = [[0.0, 0.0]] * 9
        text = json.dumps({"n": 1, "tag": "general", "entries": entries})
        text = text.replace("[0.0, 0.0]]", "[0.0, %s]]" % value)  # the last entry
        with pytest.raises(FormatError, match="entry 8 holds %s, not a number" % kind):
            grid_from_json(text)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected(self, value):
        text = '{"n": 0, "tag": "general", "entries": [[0.5, %s]]}' % value
        with pytest.raises(FormatError, match="not finite"):
            grid_from_json(text)

    @pytest.mark.parametrize("value", ["1e400", "-1.5E+999", "1" + "0" * 400],
                             ids=["1e400", "-1.5E+999", "401-digit-integer"])
    def test_overflowing_number_rejected(self, value):
        text = '{"n": 0, "tag": "general", "entries": [[%s, 0.5]]}' % value
        with pytest.raises(FormatError, match="not finite"):
            grid_from_json(text)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writer_refuses_non_finite(self, tmp_path, bad):
        data = np.zeros((3, 3), dtype=np.complex128)
        data[2, 0] = complex(0.0, bad)
        grid = CoeffGrid(1, data)
        with pytest.raises(FormatError, match=r"entry 6 \(k=1, l=-1\) is not finite"):
            grid_to_json(grid)
        with pytest.raises(FormatError):
            write_grid(tmp_path / "g.json", grid)
        assert os.listdir(tmp_path) == []

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5, 0.1, 1 / 3]

    def _special_grid(self, rng):
        k = 2 * 49 - len(self.SPECIAL)  # 17-digit values across the exponent range
        randoms = rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)
        values = np.concatenate([self.SPECIAL, randoms])
        return CoeffGrid(3, values.view(np.complex128).reshape(7, 7))

    @staticmethod
    def _bits(data):
        return np.asarray(data, dtype=np.complex128).view(np.uint64)

    def test_round_trip_is_bitwise(self, tmp_path, rng):
        g = self._special_grid(rng)
        assert np.array_equal(self._bits(grid_from_json(grid_to_json(g)).data), self._bits(g.data))
        write_grid(tmp_path / "g.json", g)
        assert np.array_equal(self._bits(read_grid(tmp_path / "g.json").data), self._bits(g.data))

    def test_reads_the_stdlib_spelling(self, tmp_path, rng):
        g = self._special_grid(rng)
        text = reference_grid_to_json(g)
        assert "1e+16" in text and "1e-05" in text and ", " in text
        (tmp_path / "old.json").write_text(text + "\n")
        back = read_grid(tmp_path / "old.json")
        assert np.array_equal(self._bits(back.data), self._bits(g.data))

    def test_stdlib_parser_reads_the_same_bits(self, rng):
        g = self._special_grid(rng)
        text = grid_to_json(g)
        assert ", " not in text and ": " not in text  # compact separators
        values = np.array(json.loads(text)["entries"], dtype=np.float64)
        assert np.array_equal(values.view(np.uint64).reshape(-1),
                              g.data.view(np.uint64).reshape(-1))

    def test_any_json_whitespace_accepted(self):
        text = '\r\n{ "n" :\t0 ,\n "tag": "general",\r "entries" : [ [ 1.5 ,\n-2 ] ] }\n  '
        assert grid_from_json(text).entry(0, 0) == complex(1.5, -2.0)

    def test_deep_nesting_refused_before_parsing(self):
        # orjson's recursive conversion would overflow the C stack on this text
        with pytest.raises(FormatError, match="nested deeper"):
            grid_from_json("[" * 200_000 + "]" * 200_000)
        extra = '{"n": 0, "tag": "general", "entries": [[0, 0]], "x": %s}'
        with pytest.raises(FormatError, match="nested deeper"):
            grid_from_json(extra % ("[" * 65 + "]" * 65))
        with pytest.raises(FormatError, match="nested deeper"):  # string closers do not count
            grid_from_json(extra % ('["%s", %s]' % ("]" * 100, "[" * 63 + "]" * 63)))
        # brackets inside strings, escaped quotes and backslashes do not nest
        for value in ['"%s"' % ("[" * 200_000), r'"\"%s"' % ("[" * 100),
                      r'["\\", "%s"]' % ("[" * 100), '"]]]]"']:
            assert grid_from_json(extra % value).entry(0, 0) == 0


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("binary", [False, True])
    def test_non_finite_values_refused(self, tmp_path, bad, binary):
        vals = np.full((3, 3), 0.5)
        vals[1, 2] = bad
        path = tmp_path / "img.pgm"
        with pytest.raises(DomainError, match="finite"):
            write_pgm(path, vals, maxval=255, binary=binary)
        assert os.listdir(tmp_path) == []

    def test_sixteen_bit_binary(self, tmp_path, rng):
        vals = rng.uniform(0, 1, (4, 4))
        path = tmp_path / "deep.pgm"
        write_pgm(path, vals, maxval=65535, binary=True)
        img, maxval = read_pgm(path)
        assert maxval == 65535
        assert np.max(np.abs(img - vals)) <= 0.5 / 65535

    @pytest.mark.parametrize("maxval", [1, 65535])
    @pytest.mark.parametrize("binary", [False, True])
    def test_round_trip_at_extreme_maxval(self, tmp_path, rng, maxval, binary):
        vals = rng.uniform(0, 1, (5, 3))
        path = tmp_path / "img.pgm"
        write_pgm(path, vals, maxval=maxval, binary=binary)
        img, got = read_pgm(path)
        assert got == maxval
        assert np.array_equal(np.rint(img * maxval), np.rint(vals * maxval))

    @pytest.mark.parametrize("maxval", [0, -1, 65536, 70000, 255.5, 255.0])
    @pytest.mark.parametrize("binary", [False, True])
    def test_maxval_the_reader_refuses_is_not_written(self, tmp_path, maxval, binary):
        # 0 and 65536 up wrote headers read_pgm rejects; 255.5 wrote 255 over pixels of 256
        with pytest.raises(DomainError, match="maxval"):
            write_pgm(tmp_path / "img.pgm", np.full((2, 2), 0.5), maxval=maxval, binary=binary)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2), (0, 3)])
    def test_values_that_are_no_image_are_not_written(self, tmp_path, shape):
        with pytest.raises(DimensionError, match="2D"):
            write_pgm(tmp_path / "img.pgm", np.full(shape, 0.5))
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize("blob", [b"P2\n1 1\n# 255", b"P5 1 1 #255"], ids=["P2", "P5"])
    def test_header_comment_at_end_of_file_is_no_field(self, tmp_path, blob):
        # the comment runs to the end of the file: no maxval is read out of it
        path = tmp_path / "c.pgm"
        atomic_write_bytes(path, blob)
        with pytest.raises(FormatError, match="truncated PGM header"):
            read_pgm(path)

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

    @pytest.mark.parametrize("header", [b"1_0 1\n255", b"2 1\n2_55", b"+2 1\n255"])
    def test_non_ascii_decimal_header_rejected(self, tmp_path, header):
        path = tmp_path / "hdr.pgm"
        atomic_write_bytes(path, b"P2\n" + header + b"\n" + b"7 " * 10 + b"\n")
        with pytest.raises(FormatError, match="header"):
            read_pgm(path)
        out = tmp_path / "z.json"
        assert run(["ingest-pgm", "--in", str(path), "--n", "1",
                    "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-square images crop
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_pgm_files_never_escape(self, data):
        blob = _mutated_pgm(data)
        with tempfile.TemporaryDirectory() as work:
            path, out = os.path.join(work, "i.pgm"), os.path.join(work, "z.json")
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                img, maxval = read_pgm(path)
            except FormatError:
                pass
            else:
                assert 0 < maxval < 65536 and 0.0 <= img.min() <= img.max() <= 1.0
            code = run(["ingest-pgm", "--in", path, "--n", "1", "--out", out])
            assert code in (0, 1, 2)
            assert os.path.exists(out) == (code == 0)
            assert not [p for p in os.listdir(work) if p.endswith(".tmp")]


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


    def test_negative_band_limit_refused(self, tmp_path):
        path = tmp_path / "w.pgm"
        write_pgm(path, np.ones((3, 3)), maxval=255)
        with pytest.raises(DomainError, match="band limit"):
            ingest_pgm(path, -1)
        out = tmp_path / "z.json"
        assert run(["ingest-pgm", "--in", str(path), "--n", "-1", "--out", str(out)]) == 2
        assert not out.exists()


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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_smap_overflow_writes_nothing(self, tmp_path, capsys):
        data = np.zeros((3, 3), dtype=np.complex128)
        data[0, 0] = data[0, 2] = data[2, 0] = data[2, 2] = 1.5e308  # (+-1, +-1)
        path = tmp_path / "huge.json"
        write_grid(path, CoeffGrid(1, data, FOURIER_REAL))
        out = tmp_path / "w.json"
        # the sqrt(2) diagonal factor overflows; Infinity is not JSON
        assert run(["smap", "--in", str(path), "--out", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["huge.json"]

    def test_manifest_sidecar(self, tmp_path, field_file):
        out = str(tmp_path / "w.json")
        run(["smap", "--in", field_file, "--out", out])
        with open(out + ".manifest.json") as fh:
            m = json.load(fh)
        assert m["inputs"] == [field_file]
        assert m["params"]["command"] == "smap"
        assert m["tool_version"] == "0.1.0"
        assert m["duration_s"] >= 0.0

    def test_manifest_duration_ignores_wall_clock_steps(self, tmp_path, field_file,
                                                        monkeypatch):
        wall = iter(range(10 ** 9, 0, -3600))  # every read is an hour earlier
        monkeypatch.setattr(time, "time", lambda: float(next(wall)))
        out = str(tmp_path / "w.json")
        assert run(["smap", "--in", field_file, "--out", out]) == 0
        with open(out + ".manifest.json") as fh:
            assert 0.0 <= json.load(fh)["duration_s"] < 60.0

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

    def test_huge_entry_gives_a_finite_norm(self, tmp_path, capsys, recwarn):
        path = str(tmp_path / "big.json")
        write_grid(path, single_entry(1, 0, 0, 1e200))
        assert run(["norms", "--in", path, "--alphas", "0,1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1:] == ["0.0,1e+200", "1.0,1e+200"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_bad_alpha_list(self, field_file):
        assert run(["norms", "--in", field_file, "--alphas", "1,zap"]) == 1

    @pytest.mark.parametrize("alphas,code", [("nan", 2), ("inf,-inf", 2), ("0,nan", 2),
                                             ("", 1), (",", 1)])
    def test_non_finite_or_empty_alphas_refused(self, tmp_path, field_file, capsys,
                                                alphas, code):
        out = tmp_path / "norms.csv"
        assert run(["norms", "--in", field_file, "--alphas", alphas,
                    "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert not out.exists()
        assert os.listdir(tmp_path) == [os.path.basename(field_file)]

    @pytest.mark.parametrize("alphas", ["400", "0,400"])
    def test_overflowing_weight_refused(self, tmp_path, field_file, capsys, alphas):
        # at n = 4 the corner weight 33^400 overflows; the norm was printed as nan
        out = tmp_path / "norms.csv"
        assert run(["norms", "--in", field_file, "--alphas", alphas,
                    "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows" in captured.err
        assert os.listdir(tmp_path) == [os.path.basename(field_file)]

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

    @pytest.mark.parametrize("value", ["null", '"abc"', '"1.5"', "true", '{"a": 1}', "[1]"])
    def test_non_number_value_is_data_error(self, tmp_path, rng, capsys, value):
        entries = [[float(z.real), float(z.imag)]
                   for z in random_fourier_real(2, rng).data.ravel()]
        text = json.dumps({"n": 2, "tag": "fourier-real", "entries": entries})
        path = tmp_path / "bad.json"
        path.write_text(text.replace("[[%r, " % entries[0][0], "[[%s, " % value, 1))
        assert run(["norms", "--in", str(path), "--alphas", "0,1"]) == 2
        captured = capsys.readouterr()
        assert "not a number" in captured.err and captured.out == ""


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

    def test_dropped_imaginary_field_is_exactly_zero(self, tmp_path, field_file, rng,
                                                    monkeypatch):
        n = read_grid(field_file).n
        compact, lind = str(tmp_path / "c.json"), str(tmp_path / "l.json")
        write_grid(compact, random_hermitian(n, rng, scale=0.4))
        write_grid(lind, random_general(n, rng, scale=0.3))
        dropped = []

        def keep_imaginary(c):
            real, imag = q_inverse(c)
            dropped.append(imag.data)
            return real, imag

        monkeypatch.setattr(cli, "q_inverse", keep_imaginary)
        assert run(["evolve", "--field", field_file, "--a", "0.7", "--lambda", "linear:0.5",
                    "--compact", compact, "--lindblad", lind, "--t", "0.05",
                    "--out", str(tmp_path / "ev.json"), "--trace", str(tmp_path / "tr.csv")]) == 0
        assert len(dropped) == 1
        assert np.array_equal(dropped[0], np.zeros_like(dropped[0]))

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
        ("--t", "1e308"),  # t / dt overflows: no finite number of steps
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

    @pytest.mark.parametrize("extra", [[], ["--lambda", "linear:0.5"]])
    def test_overflowing_weight_refused(self, tmp_path, field_file, capsys, extra):
        # every trace row held a nan norm; with lambda the growth bound's weights
        # overflow first, without it the stepper's
        argv = ["evolve", "--field", field_file, "--a", "1.0", "--t", "0.05", "--dt", "0.01",
                "--alpha", "400", "--out", str(tmp_path / "o.json"),
                "--trace", str(tmp_path / "t.csv")] + extra
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows" in captured.err
        assert os.listdir(tmp_path) == [os.path.basename(field_file)]

    def test_memory_does_not_grow_with_run_length(self, tmp_path, rng):
        n = 8
        path = str(tmp_path / "f.json")
        write_grid(path, random_fourier_real(n, rng))

        def peak(t):
            argv = ["evolve", "--field", path, "--a", "1.0", "--lambda", "linear:1.0",
                    "--t", t, "--dt", "0.001", "--alpha", "1.0",
                    "--out", str(tmp_path / "o.json"), "--trace", str(tmp_path / "t.csv")]
            gc.collect()  # earlier runs' cyclic garbage would otherwise move the peak
            tracemalloc.start()  # numpy reports its buffers to tracemalloc
            try:
                assert run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("0.1")  # first-call caches
        short, long = peak("0.1"), peak("1.0")  # 100 and 1000 steps
        grid_bytes = (2 * n + 1) ** 2 * 16
        assert long - short < 4 * grid_bytes, (short, long)

    def test_large_lambda_at_default_dt_decays(self, tmp_path, rng):
        path = str(tmp_path / "f.json")
        write_grid(path, random_fourier_real(40, rng))
        trace = tmp_path / "t.csv"
        assert run(["evolve", "--field", path, "--a", "6.283", "--lambda", "linear:1.0",
                    "--t", "0.2", "--out", str(tmp_path / "o.json"),
                    "--trace", str(trace)]) == 0
        norms = [float(line.split(",")[1]) for line in trace.read_text().split("\n")[1:-1]]
        assert len(norms) > 2 and all(np.isfinite(norms))
        assert all(x >= y for x, y in zip(norms, norms[1:]))

    def test_step_count_over_cap_is_data_error(self, tmp_path, field_file, capsys):
        work = tmp_path / "work"
        work.mkdir()
        assert run(["evolve", "--field", field_file, "--a", "1.0", "--t", "1e300",
                    "--dt", "0.001", "--out", str(work / "o.json"),
                    "--trace", str(work / "t.csv")]) == 2
        assert "steps, more than" in capsys.readouterr().err
        assert os.listdir(work) == []

    def test_zero_time_bounds_with_overflowing_constant(self, tmp_path, capsys):
        field, lind = str(tmp_path / "f.json"), str(tmp_path / "l.json")
        write_grid(field, CoeffGrid(1, np.zeros((3, 3), dtype=complex), FOURIER_REAL))
        write_grid(lind, CoeffGrid(1, np.full((3, 3), 1e200 + 0j)))
        trace = tmp_path / "t.csv"
        # the dissipative constant overflows to inf; both bounds at t = 0 are the initial norm
        assert run(["evolve", "--field", field, "--a", "1.0", "--lindblad", lind,
                    "--t", "0", "--out", str(tmp_path / "o.json"), "--trace", str(trace)]) == 0
        assert trace.read_text().split("\n")[1] == "0.0,0.0,0.0,0.0"

    def test_overflowing_lambda_is_quiet_until_a_step(self, tmp_path):
        field, trace = str(tmp_path / "f.json"), tmp_path / "t.csv"
        write_grid(field, single_entry(2, 0, 0, 1.0, FOURIER_REAL))
        argv = ["evolve", "--field", field, "--a", "1.0", "--lambda", "linear:1e200",
                "--out", str(tmp_path / "o.json"), "--trace", str(trace)]
        # the constant and the rates overflow to inf and nan; the t = 0 record uses neither
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--t", "0"]) == 0
        assert trace.read_text().split("\n")[1] == "0.0,1.0,1.0,1.0"
        # from n = 2 on, inf - inf leaves nan rates; the first step meets them and is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--t", "0.01"]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
    def test_blowup_partway_writes_nothing(self, tmp_path, rng, capsys):
        field, lind = str(tmp_path / "f.json"), str(tmp_path / "l.json")
        write_grid(field, random_fourier_real(2, rng))
        write_grid(lind, random_general(2, rng, scale=30.0))
        assert run(["evolve", "--field", field, "--a", "1.0", "--lindblad", lind,
                    "--t", "1", "--dt", "0.01", "--out", str(tmp_path / "o.json"),
                    "--trace", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "non-finite entries" in err
        assert int(re.search(r"step (\d+)", err).group(1)) > 1  # trace rows were streamed
        assert sorted(os.listdir(tmp_path)) == ["f.json", "l.json"]

    # dt * gap > 0.5 for these two: each run warns that dt is too coarse
    @example(flags={"--t": "0.01", "--dt": "0.005", "--a": "1e3"}, scale=None)
    @example(flags={"--t": "0.01", "--dt": "0.05", "--a": "-6.283"}, scale=None)
    @settings(max_examples=60, deadline=None)
    @given(flags=st.fixed_dictionaries({
        # 1e300 / dt is past the step cap and 1e308 / dt overflows for every dt drawn
        "--t": st.sampled_from(["0", "0.01", "0.05", "-1", "nan", "inf", "1e300", "1e308",
                                "x"]),
        "--a": st.sampled_from(["0", "1", "-6.283", "1e3", "nan", "x"])}, optional={
        "--dt": st.sampled_from(["0.005", "0.05", "0", "-0.01", "nan", "x"]),
        "--b": st.sampled_from(["0.5", "-3", "inf", "x"]),
        "--alpha": st.sampled_from(["1", "-0.5", "2", "nan"]),
        "--lambda": st.sampled_from(["linear:0", "linear:1.0", "linear:-3", "linear:1e3",
                                     "linear:nan", "quadratic:1"]),
        "--floor": st.sampled_from(["-3", "0", "5", "x"])}),
        scale=st.sampled_from([None, 0.0, 0.1, 30.0, 1e200]))
    def test_fuzzed_flags_never_escape(self, flags, scale):
        rng = np.random.default_rng(7)
        with tempfile.TemporaryDirectory() as work:
            field = os.path.join(work, "f.json")
            write_grid(field, random_fourier_real(2, rng))
            out, trace = os.path.join(work, "o.json"), os.path.join(work, "t.csv")
            argv = ["evolve", "--field", field, "--out", out, "--trace", trace]
            if scale is not None:
                argv += ["--lindblad", os.path.join(work, "l.json")]
                write_grid(argv[-1], random_general(2, rng, scale=scale))
            for flag, value in flags.items():
                argv += [flag, value]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(argv)
            assert code in (0, 1, 2)
            assert os.path.exists(out) == os.path.exists(trace) == (code == 0)
            assert not [p for p in os.listdir(work) if p.endswith(".tmp")]
        # the one warning a run may give: the step does not resolve the phase gap
        for w in caught:
            assert w.category is RuntimeWarning, w
            assert "does not resolve the fastest phase gap" in str(w.message), w

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


    def test_non_utf8_zero_table_is_data_error(self, tmp_path, field_file, capsys):
        table = tmp_path / "z.txt"
        table.write_bytes(b"14.134725\n\xff\n")
        with pytest.raises(FormatError, match="UTF-8"):
            load_zero_table(table)
        out = tmp_path / "o.csv"
        assert run(["redundancy", "--field", field_file, "--zeros", str(table),
                    "--counts", "1", "--out", str(out)]) == 2
        assert "UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["1_4.5", "\u0662\u0661", "2\u0661"])
    def test_non_ascii_decimal_ordinate_is_data_error(self, tmp_path, field_file, token):
        table = tmp_path / "z.txt"
        table.write_text("14.1\n%s\n" % token, encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: not a decimal ordinate"):
            load_zero_table(table)
        out = tmp_path / "o.csv"
        assert run(["redundancy", "--field", field_file, "--zeros", str(table),
                    "--counts", "1", "--out", str(out)]) == 2
        assert not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_zero_tables_never_escape(self, data):
        blob = _mutated_zero_table(data)
        with tempfile.TemporaryDirectory() as work:
            table, out = os.path.join(work, "z.txt"), os.path.join(work, "o.csv")
            with open(table, "wb") as fh:
                fh.write(blob)
            try:
                taus = load_zero_table(table).ordinates
            except FormatError:
                pass
            else:
                assert taus[0] > 0 and np.all(np.isfinite(taus)) and np.all(np.diff(taus) > 0)
            code = _redundancy_run(work, ["--zeros", table, "--counts",
                                          data.draw(st.sampled_from(["1", "3", "1,3"]))])
            assert code in (0, 1, 2)
            assert os.path.exists(out) == (code == 0)
            assert not [p for p in os.listdir(work) if p.endswith(".tmp")]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_zero_tables_match_per_line_loader(self, data):
        blob = _mutated_zero_table(data)
        with pytest.MonkeyPatch.context() as mp:
            # small casts cut the table after every line or few lines
            mp.setattr(redundancy, "_CAST_BYTES", data.draw(st.sampled_from([1, 12, 1 << 15])))
            with tempfile.TemporaryDirectory() as work:
                table = os.path.join(work, "z.txt")
                with open(table, "wb") as fh:
                    fh.write(blob)
                got, want = _load_outcome(table), _load_outcome(table, reference_load_zero_table)
            try:
                text = blob.decode("utf-8")
            except UnicodeDecodeError:
                # the per-line loader decodes as it goes and may name a bad line first
                assert got.startswith("zero table is not UTF-8 text") and isinstance(want, str)
                return
            assert got == want
            assert _load_outcome(io.BytesIO(blob)) == want
            # a handle is split at \n, \r\n and \r, as a path is read in text mode
            assert _load_outcome(io.StringIO(text)) == _load_outcome(
                io.StringIO(text, newline=None), reference_load_zero_table)

    @pytest.mark.parametrize("cast_bytes", [1, 12, 1 << 15])
    @pytest.mark.parametrize("table", [
        b"-0\n14.1\n",  # orjson reads -0 as the int 0; the refusal keeps the sign
        b"14.1\n-0\n",
        b"+1\n14.1\n",
        b".5\n14.1\n",
        b"1.\n14.1\n",
        b"01\n14.1\n",
        b"14.1\n1e999\n",
        b"1e-400\n14.1\n",
        b"14.1\n123456789012345678901234567890\n",
        b"14.1\n9223372036854776833\n",  # 2**63 + 1025, an int to orjson: rounds up
        b"true\n",
        b"14.1\n1,2\n",
        b"[1]\n",
        b"14.1 # c\n21.0\n",
        b"\x0b14.1\x0c\n\x0c21.0\x0b\n",
        b"14.1\r21.0\n",
        b"# header\r14.1\r\r21.0\r",
    ])
    def test_number_spellings_match_per_line_loader(self, tmp_path, monkeypatch, table,
                                                    cast_bytes):
        monkeypatch.setattr(redundancy, "_CAST_BYTES", cast_bytes)
        path = tmp_path / "z.txt"
        path.write_bytes(table)
        want = _load_outcome(path, reference_load_zero_table)
        assert _load_outcome(path) == want
        assert _load_outcome(io.BytesIO(table)) == want

    def test_shipped_table_peak_memory(self):
        path = DATA / "zeta_zeros_10k.txt"
        load_zero_table(path)  # first-call imports
        gc.collect()
        tracemalloc.start()
        try:
            load_zero_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 200 KB of text, 80 KB of ordinates; the text is released before
        # ZeroTable copies the ordinates (holding it through the copy peaks at 394 KB)
        assert peak <= 385_000, peak

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fuzzed_flags_never_escape(self, data):
        def draw(values):
            return data.draw(st.sampled_from(values))

        flags = {"--sigma": draw([None, "3", "1", "1.0000001", "0", "-2", "nan", "inf",
                                  "1e308", "x"]),
                 "--counts": draw(["1", "3,1,3", "4", "0", "-1", "", ",", "1e1",
                                   "99999999999999999999", "x"])}
        with tempfile.TemporaryDirectory() as work:
            table, out = os.path.join(work, "z.txt"), os.path.join(work, "o.csv")
            with open(table, "w") as fh:
                fh.write("14.134725\n21.022040\n25.010858\n")
            argv = ["--zeros", table]
            for flag, value in flags.items():
                if value is not None:
                    argv += [flag, value]
            code = _redundancy_run(work, argv)
            assert code in (0, 1, 2)
            assert os.path.exists(out) == (code == 0)
            assert not [p for p in os.listdir(work) if p.endswith(".tmp")]
            if code == 0:  # the sidecar echoes every flag and must stay strict JSON
                with open(out + ".manifest.json") as fh:
                    json.loads(fh.read(), parse_constant=_refuse_constant)


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

    def test_non_utf8_grid_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"n": 0, "tag": "gen\xff", "entries": [[0, 0]]}')
        assert run(["norms", "--in", str(bad), "--alphas", "0"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_grid_files_never_escape(self, data):
        text = _mutated_grid_text(data)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "f.json")
            with open(path, "wb") as fh:
                fh.write(text)
            assert run(["norms", "--in", path, "--alphas", "0,1"]) in (0, 1, 2)
            assert run(["smap", "--in", path, "--out", os.path.join(work, "w.json")]) in (0, 1, 2)

    @pytest.mark.parametrize("command,flag,good,bad", [
        ("redundancy", "--counts", "10", "1_0"),
        ("redundancy", "--counts", "10", "\u0661\u0660"),
        ("redundancy", "--counts", "1,10", "1,1\u0660"),
        ("redundancy", "--sigma", "30", "3_0"),
        ("redundancy", "--sigma", "3", "\u0663"),
        ("evolve", "--lambda", "linear:10", "linear:1_0"),
        ("evolve", "--lambda", "linear:1", "linear:\u0661"),
        ("evolve", "--a", "10", "1_0"),
        ("evolve", "--b", "0.5", "\u00a00.5"),
        ("evolve", "--t", "0.01", "0.0\u0661"),
        ("evolve", "--dt", "0.005", "0.00_5"),
        ("evolve", "--alpha", "1", "\u0661"),
        ("norms", "--alphas", "1,10", "1,1_0"),
        ("ingest-pgm", "--n", "3", "\u0663"),
    ])
    def test_number_spellings_the_readers_refuse(self, tmp_path, rng, command, flag, good, bad):
        # int() and float() take '_' separators and any Unicode digits
        field, pgm = str(tmp_path / "f.json"), str(tmp_path / "p.pgm")
        write_grid(field, random_fourier_real(2, rng))
        write_pgm(pgm, rng.uniform(0, 1, (8, 8)), maxval=255)
        flags = {
            "redundancy": {"--field": field, "--zeros": str(DATA / "zeta_zeros_100.txt"),
                           "--counts": "10"},
            "evolve": {"--field": field, "--a": "1", "--t": "0.01",
                       "--trace": str(tmp_path / "t.csv")},
            "norms": {"--in": field, "--alphas": "1"},
            "ingest-pgm": {"--in": pgm, "--n": "3"},
        }[command]
        out = tmp_path / "o.out"
        for value, code in ((bad, 1), (good, 0)):
            argv = dict(flags, **{flag: value, "--out": str(out)})
            assert run([command] + [t for kv in argv.items() for t in kv]) == code
            assert out.exists() == (code == 0)

    @pytest.mark.parametrize("argv", [
        [],
        ["--help"],
        ["-h", "evolve"],
        ["frobnicate"],
        ["frobnicate", "--in", "x"],
        ["--bogus", "smap"],
        ["smap", "--in", "x", "--out", "y", "--bogus"],
        ["smap", "--in", "x", "--out", "y", "extra"],
        ["smap", "--in"],
        ["qinverse", "--in", "x", "--out-real", "y"],
        ["ingest-pgm", "--in", "x", "--n", "x3", "--out", "y"],
        ["norms", "--in", "x", "--alphas", ","],
        ["evolve", "--field", "f", "--a", "1_0", "--t", "1", "--out", "o", "--trace", "t"],
        ["evolve", "--field", "f", "--a", "1", "--t", "1", "--out", "o", "--trace", "t",
         "--lambda", "quadratic:1"],
        ["redundancy", "--zeros", "z", "--counts", "0", "--out", "o"],
        ["redundancy", "--zeros", "z", "--counts", "1", "--out", "o", "--frob", "1"],
        ["commutator", "--f", "a", "--out", "o"],
    ] + [[name, "--help"] for name in cli._COMMANDS] + [[name] for name in cli._COMMANDS])
    def test_text_matches_full_parser(self, capsys, monkeypatch, argv):
        # run builds only the named command's subparser; what it prints and
        # returns must be what the parser with every command gives
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        want = (0 if exc.value.code == 0 else 1,) + tuple(capsys.readouterr())
        assert (run(argv),) + tuple(capsys.readouterr()) == want

    @pytest.mark.parametrize("argv", [
        ["evolve", "--field", "f", "--a", "1", "--t", "1", "--out", "o", "--trace", "t",
         "--lindblad", "l1", "--lindblad", "l2", "--lambda", "linear:0.5", "--floor", "2"],
        ["redundancy", "--zeros", "z", "--counts", "3,1", "--out", "o", "--sigma", "2"],
        ["norms", "--in", "x", "--alphas", "0,1.5"],
        ["qinverse", "--in", "x", "--out-real", "y", "--out-imag", "z"],
    ])
    def test_one_command_parser_reads_as_full_parser(self, argv):
        assert vars(cli.build_parser(argv[0]).parse_args(argv)) == vars(
            cli.build_parser().parse_args(argv))

    def test_module_entry_point_help(self, monkeypatch, capsys):
        # `python -m qtorus.cli` reads its argv from sys.argv
        monkeypatch.setenv("COLUMNS", "100")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for name in cli._COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "qtorus.cli", name, "--help"],
                                  env=env, capture_output=True, text=True, timeout=60)
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args([name, "--help"])
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    def test_asymmetric_grid_rejected(self, tmp_path, rng):
        path = str(tmp_path / "gen.json")
        write_grid(path, random_general(3, rng))
        assert run(["smap", "--in", path,
                    "--out", str(tmp_path / "o.json")]) == 2


_FUZZ_GRID = symmetrize_fourier_real(
    np.random.default_rng(7).standard_normal((3, 3)) * np.array([1e-300, 1.0, 1e300]))
_FUZZ_TOKENS = ["null", "true", '"1.5"', "{}", "[]", "[1, 2]", "NaN", "Infinity", "-Infinity",
                "1e400", "-1E+999", "1e-400", "1" + "0" * 400, "01", "1.", ".5", "-", "0x1",
                "1.7976931348623157e308", "-0.0", "5e-324"]


def _splice(data, blob: bytes) -> bytes:
    """Maybe a few random bytes spliced in at a random cut, and the tail maybe dropped."""
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, len(blob)))
        blob = blob[:cut] + data.draw(st.binary(max_size=3)) + blob[cut:][:data.draw(
            st.sampled_from((0, len(blob))))]
    return blob


def _mutated_grid_text(data) -> bytes:
    """A valid fourier-real n=1 grid file with entries swapped, dropped or
    duplicated, non-number tokens injected, and possibly truncated or spliced."""
    pairs = [[repr(float(z.real)), repr(float(z.imag))] for z in _FUZZ_GRID.ravel()]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(pairs) - 1))
        action = data.draw(st.sampled_from(("token", "drop", "duplicate", "swap")))
        if action == "token":
            pairs[i][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(_FUZZ_TOKENS))
        elif action == "drop" and len(pairs) > 1:
            del pairs[i]
        elif action == "duplicate":
            pairs.insert(i, list(pairs[i]))
        else:
            pairs[i].reverse()
    text = ('{"n": 1, "tag": "fourier-real", "entries": [%s]}'
            % ", ".join("[%s, %s]" % tuple(p) for p in pairs)).encode()
    return _splice(data, text)


_PGM_TOKENS = [b"P2", b"P5", b"P3", b"0", b"1", b"255", b"256", b"65535", b"65536", b"-1",
               b"+7", b"1_0", b"1.5", b"2e2", b"nan", b"9" * 30, b"#", b"# note\n", b"",
               b"\xff", b"\x00\x01"]


def _mutated_pgm(data) -> bytes:
    """A valid 3x3 P2 or P5 file (8- or 16-bit) with header or pixel tokens
    replaced, then possibly truncated or spliced."""
    binary = data.draw(st.booleans())
    maxval = data.draw(st.sampled_from((255, 65535)))
    pix = np.arange(9) * (maxval // 8)
    if binary:
        raster = [pix.astype(">u2" if maxval > 255 else "u1").tobytes()]
    else:
        raster = [str(v).encode() for v in pix]
    tokens = [b"P5" if binary else b"P2", b"3", b"3", str(maxval).encode()] + raster
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(tokens) - 1))
        tokens[i] = data.draw(st.sampled_from(_PGM_TOKENS))
    return _splice(data, b"\n".join(tokens))


_ZERO_TOKENS = [b"nan", b"inf", b"-14.1", b"0", b"1e400", b"5e-324", b"1e308", b"1_0",
                b"0x10", b"abc", b"", b"# note", b"\xff", b"\x00",
                b"3_0.5", "\u0663\u0660.5".encode(), b"30.5\r31.5", b"30.5\r", b"\x0c30.5\x0c",
                b"30.5\x0c31.5", "\u00a030.5\u00a0".encode(), b"\x1c30.5\x1f", b"  # 1_0 here",
                "# \u03b6 zeros \u0662\u0661".encode()]


def _mutated_zero_table(data) -> bytes:
    """A valid three-ordinate table with lines replaced, dropped, duplicated or
    swapped, then possibly truncated or spliced."""
    lines = [b"# ordinates", b"14.134725", b"21.022040", b"25.010858"]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(st.sampled_from(("token", "drop", "duplicate", "swap")))
        if action == "token":
            lines[i] = data.draw(st.sampled_from(_ZERO_TOKENS))
        elif action == "drop" and len(lines) > 1:
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return _splice(data, b"\n".join(lines) + b"\n")


def _load_outcome(source, load=load_zero_table):
    """The ordinates' bytes, or the text of the FormatError that refused them."""
    try:
        return load(source).ordinates.tobytes()
    except FormatError as exc:
        return str(exc)


def _redundancy_run(work: str, flags) -> int:
    """`qtorus redundancy` on an n=1 field in `work`, writing `work`/o.csv."""
    field = os.path.join(work, "f.json")
    write_grid(field, random_fourier_real(1, np.random.default_rng(7)))
    return run(["redundancy", "--field", field, "--out", os.path.join(work, "o.csv")]
               + list(flags))


def _refuse_constant(name):
    raise AssertionError("manifest holds %s, which is not JSON" % name)
