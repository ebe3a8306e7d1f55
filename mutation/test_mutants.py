"""Mutation smoke: every mutant of the package must fail the tests named for it.

    python3 -m pytest -q mutation/test_mutants.py

It is not part of the tier-1 suite, which collects tests/ only.  Each row
of MUTANTS is (name, file, exact old text, new text, tests that must
fail).  For each row the runner copies src/, tests/, scripts/ and
pyproject.toml to a temporary directory (data/ is linked, not copied),
replaces the old text once in the copy's file, and runs only the named
tests there, with the copy's src/ first on PYTHONPATH; tests that start a
child process find the mutated src/ beside their own copy.  A row fails
when its old text is missing, so a stale mutant is reported, never
skipped, and when any named test passes, is skipped or errors instead of
failing.  test_named_tests_pass_unmutated first runs every named test on
an unmutated copy, so that a failure under a mutant is the mutant's doing.
The whole run took about 105 s on 2 vCPUs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RED, DIR, GRIDS, GRIDIO, DYN, ERR, CLI = (os.path.join("src", "qtorus", name) for name in (
    "redundancy.py", "dirichlet.py", "grids.py", "gridio.py", "dynamics.py", "errors.py",
    "cli.py"))

PER_ZERO = ["tests/test_redundancy.py::TestPerZeroBatching::test_matches_sequential_fold[257-7]",
            "tests/test_redundancy.py::TestPerZeroBatching::"
            "test_matches_sequential_fold[257-7-general]"]
# a fourier-real field has f' = conj(R f R) = f: only these fields see a lost reflection
REFLECT = ["tests/test_redundancy.py::TestPerZeroBatching::"
           "test_matches_sequential_fold[257-7-general]",
           "tests/test_redundancy.py::TestPerZeroBatching::"
           "test_matches_sequential_fold[257-7-hermitian]"]
DIRECT = ["tests/test_redundancy.py::TestEulerRoute::test_means_match_sin_cos_route[8]",
          "tests/test_redundancy.py::TestPlaneAverage::test_agrees_with_per_zero_route"]
GEN = "tests/test_dynamics.py::TestGeneralDissipator::"
IO = "tests/test_io_cli.py::TestGridJson::"
ZT = "tests/test_redundancy.py::TestZeroTable::"
REFUSED = "tests/test_contract.py::test_bad_value_refused["
RECORD = "tests/test_io_cli.py::TestRunRecord::test_run_record["
FAILED = "tests/test_io_cli.py::TestRunRecord::test_failed_run_leaves_no_sidecar["

MUTANTS = [
    # the per-zero route's cone blocks
    ("N without the conjugate", RED,
     "np.conj(pbuf[:s, ::-1], out=qbuf[:s])", "np.copyto(qbuf[:s], pbuf[:s, ::-1])", PER_ZERO),
    ("N and P swapped", RED,
     "p, q, w = pbuf[:s].reshape(s, n, n), qbuf[:s].reshape(s, n, n), wbuf[:s]",
     "q, p, w = pbuf[:s].reshape(s, n, n), qbuf[:s].reshape(s, n, n), wbuf[:s]", PER_ZERO),
    ("0 row dropped", RED, "            block[n] += np.sum(w[:, 2 * n], axis=0)\n", "", PER_ZERO),
    ("0 column dropped", RED, "wbuf[:, :, n] = g[:, n]", "wbuf[:, :, n] = 0", PER_ZERO),
    # the rows k < 0 of the per-zero images, read off the rows k > 0 of f''s
    ("f' without its conjugate", RED, "g[1:2 * n:2] = np.conj(f[n - 1::-1, ::-1])",
     "g[1:2 * n:2] = f[n - 1::-1, ::-1]", REFLECT),
    ("f' rows not reversed", RED, "np.conj(f[n - 1::-1, ::-1])", "np.conj(f[:n, ::-1])",
     REFLECT),
    ("f' columns not reversed", RED, "np.conj(f[n - 1::-1, ::-1])", "np.conj(f[n - 1::-1])",
     REFLECT),
    ("rows k < 0 put back without the conjugate", RED,
     "block[neg] = np.conj(top[::-1, :m - 1:-1])", "block[neg] = top[::-1, :m - 1:-1]", REFLECT),
    ("rows k < 0 put back without the row reversal", RED,
     "block[neg] = np.conj(top[::-1, :m - 1:-1])", "block[neg] = np.conj(top[:, :m - 1:-1])",
     REFLECT),
    ("rows k < 0 put back without the column reversal", RED,
     "block[neg] = np.conj(top[::-1, :m - 1:-1])", "block[neg] = np.conj(top[::-1, m:])",
     REFLECT),
    ("mu and k^-sigma rebuilt per block", RED, "rows = _moebius_rows(terms, taus[start:stop])",
     "rows = _moebius_rows(_moebius_terms(sigma, n), taus[start:stop])",
     ["tests/test_redundancy.py::TestPerZeroBatching::test_moebius_terms_built_once_per_call"]),
    ("sub-batch buffers sized by the count", RED,
     "wbuf = np.empty((batch, m, m)", "wbuf = np.empty((taus.size, m, m)",
     ["tests/test_redundancy.py::TestPerZeroBatching::test_peak_memory_at_32"]),
    ("sub-batch not sized from n", RED,
     "batch = min(SUB_BATCH, max(1, _SUB_BATCH_BYTES // (16 * m * m)))", "batch = SUB_BATCH",
     ["tests/test_redundancy.py::TestPerZeroBatching::test_peak_memory_at_32"]),
    # the direct route's Gram block
    ("S and O swapped", RED, "np.concatenate([phase.T, phase.T.conj()], axis=1)",
     "np.concatenate([phase.T.conj(), phase.T], axis=1)", DIRECT),
    ("bottom Gram half not conjugated", RED, "np.roll(m.conj(), w, axis=1)",
     "np.roll(m, w, axis=1)", DIRECT),
    ("P P^T in place of P P^H", RED, "np.concatenate([phase.T, phase.T.conj()], axis=1)",
     "np.concatenate([phase.T, phase.T], axis=1)", DIRECT),
    # the 1D average on the direct route's plan
    ("1D negative cone not conjugated", RED,
     "    logs[:bounds[n]] *= -1  # the k < 0 terms come first; M(0) = 1 at d = 1\n", "",
     ["tests/test_redundancy.py::TestAxisAverage::test_matches_per_zero_average",
      "tests/test_redundancy.py::TestPlaneAverage::test_axis_row_reduces_to_1d"]),
    ("np.unique importing numpy.ma", RED, "np.flatnonzero(np.bincount(dd)).tolist()",
     "np.unique(dd).tolist()",
     ["tests/test_redundancy.py::TestPlaneAverage::test_direct_route_leaves_numpy_ma_unimported"]),
    # refusals
    ("sigma refusal removed", DIR, "    _require_finite(sigma=sigma)\n    if not sigma > 1:",
     "    if False:",
     [REFUSED + "c_d-sigma-nan]", REFUSED + "broadband_average_2d-sigma-inf]",
      "tests/test_dirichlet.py::TestPeriodizedZeta::test_domain",
      "tests/test_redundancy.py::TestNonFiniteSigma::test_cli_exits_with_data_error[nan]"]),
    ("phase_average refusals removed", RED,
     "    if taus.size == 0:\n        raise EmptyRangeError(\"a phase average needs at least one "
     "ordinate\")\n    _require_finite(taus=taus, xs=xs)\n", "",
     ["tests/test_redundancy.py::TestPhaseAverage::test_no_ordinates_refused[zero]",
      REFUSED + "phase_average-xs-nan-entry]"]),
    ("non-finite T refusal removed", RED, "_require_finite(t=t)", "pass",
     [REFUSED + "ZeroTable.count_below-t-nan]", REFUSED + "broadband_average_2d-t-nan]"]),
    ("shared finite refusal removed", ERR, "        if not ok:\n", "        if False:\n",
     [REFUSED + "SobolevWeight-alpha-nan]", REFUSED + "EvolveConfig-t_end-nan]",
      REFUSED + "ZeroTable.count_below-t-inf]", REFUSED + "LindbladSet-lam-nan-entry]",
      REFUSED + "drift_oracle-a-nan]"]),
    ("_require_finite reduced to scalars", ERR,
     "        try:\n            ok = value is None or not isinstance(value, bool) and np.isfinite(\n"
     "                float(value) if isinstance(value, int) else value).all()\n"
     "        except (TypeError, OverflowError):  # a string or an object; an int past 1e308\n"
     "            ok = False\n",
     "        ok = value is None or not isinstance(value, bool) and np.isfinite(complex(value))\n",
     [REFUSED + "phase_average-taus-nan-entry]", REFUSED + "heisenberg_closed-a0-inf-entry]",
      REFUSED + "ArithmeticSeq-a--infj-entry]"]),
    ("non-finite tau accepted by ZetaParams", DIR, "_require_finite(tau=self.tau)", "pass",
     [REFUSED + "ZetaParams-tau-nan]"]),
    ("single_entry wraps an outside index", GRIDS,
     "    _require_index(n, k, l)\n    side = 2 * n + 1", "    side = 2 * n + 1",
     ["tests/test_spectral.py::test_grid_containers_refuse_bad_shapes"
      "[single-entry-row-outside]"]),
    ("ordinate order refusal removed", RED, "ok[1:] &= arr[1:] > arr[:-1]", "pass",
     ["tests/test_redundancy.py::TestZeroTable::test_parse_rejects_disorder"]),
    ("non-finite window entries applied", DIR, "    _require_finite_complex(x=x)\n", "",
     [REFUSED + "apply_D-x-nan-entry]", REFUSED + "apply_D_inv-x-inf-entry]"]),
    ("non-finite fhat averaged", RED, "    _require_finite_complex(fhat=fhat)\n", "",
     [REFUSED + "broadband_average_1d-fhat-inf-entry]"]),
    ("non-finite samples taken", GRIDS, "_require_finite_complex(values=arr)", "pass",
     [REFUSED + "SampleGrid-values-nan-entry]", REFUSED + "SampleGrid-values--infj-entry]"]),
    ("demo's --n read by int()", os.path.join("scripts", "lindblad_filter_demo.py"),
     'ap.add_argument("--n", type=_int', 'ap.add_argument("--n", type=int',
     ["tests/test_dynamics.py::TestDiagonalLindblad::"
      "test_filter_demo_refuses_bad_input_in_one_line[n-1_0]"]),
    ("NaN s accepted by periodized_zeta", DIR, "    _require_finite_complex(s=s)\n", "",
     [REFUSED + "periodized_zeta-s-2+nanj]", REFUSED + "periodized_zeta-s-2+infj]"]),
    ("complex refusal dropped from the real role", ERR, "        if np.iscomplexobj(value):\n",
     "        if False:\n",
     [REFUSED + "SobolevWeight-alpha-1j]", REFUSED + "EvolveConfig-t_end-3+0j]",
      REFUSED + "ZeroTable.count_below-t-complex128-3]", REFUSED + "phase_average-xs-1j-entry]",
      REFUSED + "write_pgm-values-0j-entry]"]),
    ("PGM writer takes non-finite values", GRIDIO, "    _require_finite(values=values)", "",
     ["tests/test_io_cli.py::TestPgm::test_non_finite_values_refused[False-nan]"]),
    ("band-limit check dropped from ingest_pgm", GRIDIO, "    _require_band_limit(n)\n    img, _",
     "    img, _",
     ["tests/test_io_cli.py::TestIngest::test_negative_band_limit_refused",
      REFUSED + "ingest_pgm-n-2.5]", REFUSED + "ingest_pgm-n-valid-as-float]"]),
    ("P2 pixels parsed as floats", GRIDIO,
     "bad = next((t for t in tokens if not t.isdigit()), None)", "bad = None",
     ["tests/test_io_cli.py::TestPgm::test_non_integer_pixel_rejected[1.5 2e2]"]),
    # the one Lindblad remainder and its two finishes
    ("Hermitian finish with the full right_j", DYN,
     "(self.half_right if hermitian else self.right)", "self.right",
     [GEN + "test_hermitian_body_matches_term_by_term_reference[3-1-heisenberg-1.0]",
      GEN + "test_hermitian_body_matches_term_by_term_reference[3-2-schrodinger--1.0]",
      GEN + "test_both_finishes_agree_on_hermitian_data[4-1-heisenberg]"]),
    ("general finish takes Y^H", DYN, "ad @ self.m_h", "np.conj(y.T)",
     [GEN + "test_generator_matches_term_by_term_reference[4-heisenberg-1.0]",
      GEN + "test_generator_matches_term_by_term_reference[4-schrodinger--1.0]"]),
    ("stepper ignores Hermitian data", DYN,
     "hermitian = np.array_equal(a0.data, np.conj(a0.data.T))", "hermitian = False",
     [GEN + "test_stepper_picks_the_body_from_the_data[3-heisenberg]",
      GEN + "test_complex_lambda_keeps_hermitian_runs_exact[8-schrodinger]"]),
    ("step count cap removed", DYN, "if n_steps > MAX_STEPS:", "if False:",
     ["tests/test_dynamics.py::TestIntegratorGuards::"
      "test_step_count_over_cap_refused_before_first_record"]),
    # the flat read of grid JSON
    ("skeleton check dropped", GRIDIO,
     "    if len(skeleton) != len(lead) + 4 * pairs + 1 or skeleton != (\n"
     "            lead + b\"[,],\" * (pairs - 1) + b\"[,]]}\"):\n        return None\n", "",
     [IO + "test_refusals_keep_their_text[wrong-pairs]",
      IO + "test_refusals_keep_their_text[wrong-pairs-spaced]"]),
    ("\\s in place of JSON whitespace", GRIDIO, '_JSON_SPACE = rb"[ \\t\\n\\r]*"',
     '_JSON_SPACE = rb"\\s*"',
     [IO + "test_form_feed_and_vertical_tab_refused[0-ff]",
      IO + "test_form_feed_and_vertical_tab_refused[7-vt]"]),
    ("length compared after building the expected skeleton", GRIDIO,
     'len(skeleton) != len(lead) + 4 * pairs + 1 or skeleton != (\n'
     '            lead + b"[,]," * (pairs - 1) + b"[,]]}")',
     'skeleton != (\n            lead + b"[,]," * (pairs - 1) + b"[,]]}") or len(skeleton) != '
     'len(lead) + 4 * pairs + 1',
     [IO + "test_large_n_with_short_body_allocates_nothing[600]",
      IO + "test_large_n_with_short_body_allocates_nothing[999999999]"]),
    # the zero-table loader's orjson path for clean tables
    ("final \\n kept in the body", RED, "body = piece[:-1] if piece[-1] == 0x0A else piece",
     "body = piece", [ZT + "test_shipped_tables_stay_on_orjson"]),
    ("clean-byte check dropped", RED, "if body.translate(None, _CLEAN_BYTES):", "if False:",
     ["tests/test_io_cli.py::TestCliRedundancy::test_number_spellings_match_per_line_loader"
      "[true\\n-1]",
      "tests/test_io_cli.py::TestCliRedundancy::test_number_spellings_match_per_line_loader"
      "[14.1\\n1,2\\n-1]"]),
    ("\\n dropped from the clean bytes", RED, '_CLEAN_BYTES = b"0123456789.eE+-\\n"',
     '_CLEAN_BYTES = b"0123456789.eE+-"', [ZT + "test_shipped_tables_stay_on_orjson"]),
    # the header skip before the pieces
    ("header skip crosses a \\r", RED,
     'if not stop or data.find(b"\\r", start, stop) >= 0:', "if not stop:",
     ["tests/test_io_cli.py::TestCliRedundancy::test_number_spellings_match_per_line_loader"
      "[# header\\r14.1\\n21.0\\n-8192]"]),
    ("header skip without its '#' check", RED, 'while data.startswith(b"#", start):',
     "while start < len(data):",
     ["tests/test_io_cli.py::TestCliRedundancy::test_number_spellings_match_per_line_loader"
      "[  # x\\n14.1\\n21.0\\n-8192]",
      ZT + "test_shipped_tables_match_per_line_loader[zeta_zeros_100.txt]"]),
    # one float64 conversion of the numbers orjson parses
    ("wrong count given to np.fromiter", GRIDIO, "np.fromiter(values, np.float64, len(values))",
     "np.fromiter(values, np.float64, len(values) - 1)",
     [ZT + "test_shipped_tables_match_per_line_loader[zeta_zeros_10k.txt]",
      IO + "test_round_trip_exact"]),
    # the field's S-map, taken once per redundancy call
    ("once-taken S-map of zbar, not of the field", RED, "target = s_map(fhat).data",
     "target = s_map(zbar).data",
     ["tests/test_io_cli.py::TestCliRedundancy::test_field_is_mapped_once_per_call",
      "tests/test_redundancy.py::TestErrorAccounting::test_field_and_operator_errors_agree"]),
    # refusals of a parameter outside its domain
    ("moebius takes a float", DIR, "_require_integer(1, n=n)", "_require_integer(1, n=int(n))",
     [REFUSED + "moebius-n-2.5]", REFUSED + "moebius-n-float64-6.0]"]),
    ("float count reaches the block folds", RED, "        zeros.t_covering(c)\n",
     "        zeros.t_covering(int(c))\n",
     ["tests/test_redundancy.py::TestBlockAveraging::test_counts_outside_table_rejected",
      REFUSED + "broadband_average_2d_counts-count-2.5]"]),
    ("growth bound of a non-finite t", DYN, "_require_finite(0, alpha=alpha, t=t)",
     "_require_finite(0, alpha=alpha)",
     [REFUSED + "growth_bound-t-nan]", REFUSED + "growth_bound-t-inf]"]),
    ("lower bound dropped from _require_finite", ERR,
     "        if least is not None and value < least:\n"
     "            raise DomainError(\"%s must be >= ",
     "        if False:\n            raise DomainError(\"%s must be >= ",
     [REFUSED + "EvolveConfig-t_end--1.0]", REFUSED + "growth_bound-alpha--1.0]",
      "tests/test_dynamics.py::TestGrowthBounds::test_negative_arguments_rejected"]),
    ("string ordinates cast to float", RED, 'if arr.dtype.kind not in "iuf":',
     'if arr.dtype.kind == "c":', [REFUSED + "ZeroTable-ordinates-valid-as-str]"]),
    # the one refusal contract: a band limit checked at its root, bools and
    # arrays refused by the two helpers, c_d's integer check folded into them
    ("band-limit check dropped from index_range", GRIDS,
     "    _require_band_limit(n)\n    return np.arange(-n, n + 1)",
     "    return np.arange(-n, n + 1)",
     [REFUSED + "index_range-n-2.5]", REFUSED + "index_range-n--1]",
      REFUSED + "HarmonicSpec.levels-n-2.5]"]),
    ("bool clause dropped from _require_integer", ERR,
     "if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (",
     "if not isinstance(value, numbers.Integral) or (",
     [REFUSED + "CoeffGrid-n-True]", REFUSED + "index_range-n-True]",
      REFUSED + "ZeroTable.t_covering-count-True]"]),
    ("CoeffGrid takes an integral float band limit", GRIDS,
     "        _require_band_limit(self.n)\n        if self.tag",
     "        if self.n < 0:\n            raise DimensionError(\"band limit\")\n        if self.tag",
     [REFUSED + "CoeffGrid-n-6.0]", REFUSED + "CoeffGrid-n-valid-as-float]"]),
    ("index check rounds a float", GRIDS, "_require_integer(k=k, l=l)",
     "_require_integer(k=int(k), l=int(l))",
     [REFUSED + "single_entry-k-6.0]", REFUSED + "single_entry-l-valid-as-float]",
      REFUSED + "CoeffGrid.entry-k-valid-as-float]"]),
    ("c_d's integer check deleted", RED, "    _require_integer(2, d=d)\n", "",
     [REFUSED + "c_d-d-2.5]", REFUSED + "c_d-d-6.0]",
      "tests/test_redundancy.py::TestCoefficientDecay::test_domain"]),
    # the run record, built and written by cli.run from the argument roles
    ("sidecar for the first output only", CLI,
     "        for out in outputs:  # only a run that succeeds is recorded\n",
     "        for out in outputs[:1]:\n", [RECORD + "qinverse]", RECORD + "evolve]"]),
    ("parameter left out of the record", CLI, '_arg("param", "--dt", type=_float)',
     '_arg("", "--dt", type=_float)', [RECORD + "evolve]", RECORD + "evolve-lindblad]"]),
    ("absent optional input recorded", CLI, 'if value and "in" in roles:',
     'if "in" in roles:', [RECORD + "qtransform]", RECORD + "evolve]"]),
    ("trace renamed before the grid is written", CLI,
     "        # the grid goes into place before the trace: a grid that fails leaves neither\n"
     "        write_grid(", "    if True:\n        write_grid(", [FAILED + "evolve-after-trace]"]),
    ("temp file named for a missing directory", GRIDIO,
     "the temp's\n        raise type(exc)(exc.errno, exc.strerror, path) from None",
     "the temp's\n        raise", [FAILED + "norms-output]", FAILED + "evolve-after-trace]"]),
    ("temp file named for an output that is a directory", GRIDIO,
     "and exc.filename == tmp:", "and False:", [FAILED + "output-is-a-directory]"]),
    # the band-limit rule, in grids alone: N read off a window, band limits compared
    ("window parity flipped", GRIDS, "shape[0] % 2 != 1", "shape[0] % 2 != 0",
     [REFUSED + "apply_D-x-even-length]", REFUSED + "LindbladSet.n-lam-even-length]",
      REFUSED + "broadband_average_1d-fhat-even-length]",
      "tests/test_contract.py::test_valid_call_succeeds[analyze]"]),
    ("0-d x taken as a window of one", DIR, '_window_band_limit("x", x.shape[:1])',
     '_window_band_limit("x", x.shape[:1] or (1,))',
     [REFUSED + "apply_D-x-0-d]", REFUSED + "apply_D_inv-x-0-d]"]),
    ("only the first two band limits compared", GRIDS, "any(n != ns[0] for n in ns)",
     "any(n != ns[0] for n in ns[:2])",
     [GEN + "test_bad_sizes_rejected[lambda-third-band-limit]"]),
    # hygiene and parsing
    ("unused constant re-added", RED,
     "BLOCK = 256  # ordinates per block sum of a phase average\n",
     "BLOCK = 256  # ordinates per block sum of a phase average\n_SPARE_BLOCK = 512\n",
     ["tests/test_hygiene.py::test_package_private_names_are_all_used"]),
    ("unanchored PGM comment", GRIDIO, r'rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)"',
     r'rb"(?:\s|#[^\n]*)*([^\s#]+)"',
     ["tests/test_io_cli.py::TestPgm::test_header_comment_at_end_of_file_is_no_field[P2]",
      "tests/test_io_cli.py::TestPgm::test_header_comment_at_end_of_file_is_no_field[P5]"]),
    # grids keep only arrays no one else can write to
    ("writable arrays shared", GRIDS,
     "arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable",
     "arr.flags.c_contiguous and arr.flags.owndata",
     ["tests/test_spectral.py::TestGridOwnership::test_writable_input_is_not_aliased"]),
    ("read-only views shared", GRIDS,
     "arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable",
     "arr.flags.c_contiguous and not arr.flags.writeable",
     ["tests/test_spectral.py::TestGridOwnership::"
      "test_read_only_view_of_a_writable_base_is_copied"]),
]


def _copy_tree(dest: str):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "scripts"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)
    os.symlink(os.path.join(ROOT, "data"), os.path.join(dest, "data"))


def _run_tests(root: str, tests) -> dict:
    """{test name: outcome} of a pytest run of tests inside root."""
    report = os.path.join(root, "report.xml")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--junitxml", report] + list(tests),
                          cwd=root, env=env, capture_output=True, text=True, timeout=600)
    if not os.path.exists(report):
        pytest.fail("pytest wrote no report:\n" + proc.stdout[-2000:] + proc.stderr[-2000:])
    outcomes = {}
    for case in ET.parse(report).iter("testcase"):
        kinds = [child.tag for child in case if child.tag in ("failure", "error", "skipped")]
        outcomes["%s::%s" % (case.get("classname"), case.get("name"))] = (
            kinds[0] if kinds else "passed")
    return outcomes


def test_mutants_are_distinct_and_named():
    names = [row[0] for row in MUTANTS]
    assert len(set(names)) == len(names)
    assert all(row[4] for row in MUTANTS)


def test_named_tests_pass_unmutated(tmp_path):
    tests = sorted({t for row in MUTANTS for t in row[4]})
    _copy_tree(str(tmp_path))
    outcomes = _run_tests(str(tmp_path), tests)
    assert len(outcomes) == len(tests), "named tests not found: %r" % sorted(outcomes)
    assert set(outcomes.values()) == {"passed"}, outcomes


@pytest.mark.parametrize("name,path,old,new,tests", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_is_caught(tmp_path, name, path, old, new, tests):
    _copy_tree(str(tmp_path))
    target = os.path.join(str(tmp_path), path)
    with open(target, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text, "stale mutant %r: its old text is not in %s" % (name, path)
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))
    outcomes = _run_tests(str(tmp_path), tests)
    assert len(outcomes) == len(tests), "named tests not found: %r" % sorted(outcomes)
    survived = {t: o for t, o in outcomes.items() if o != "failure"}
    assert not survived, "mutant %r not caught: %r" % (name, survived)
