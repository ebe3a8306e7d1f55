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
The whole run took about 60 s on 2 vCPUs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RED, DIR, GRIDS, GRIDIO, DYN = (os.path.join("src", "qtorus", name) for name in (
    "redundancy.py", "dirichlet.py", "grids.py", "gridio.py", "dynamics.py"))

PER_ZERO = ["tests/test_redundancy.py::TestPerZeroBatching::test_matches_sequential_fold[257-7]",
            "tests/test_redundancy.py::TestPerZeroBatching::"
            "test_matches_sequential_fold[257-7-general]"]
DIRECT = ["tests/test_redundancy.py::TestEulerRoute::test_means_match_sin_cos_route[8]",
          "tests/test_redundancy.py::TestPlaneAverage::test_agrees_with_per_zero_route"]
GEN = "tests/test_dynamics.py::TestGeneralDissipator::"

MUTANTS = [
    # the per-zero route's cone blocks
    ("N without the conjugate", RED,
     "np.conj(pbuf[:s, ::-1], out=qbuf[:s])", "np.copyto(qbuf[:s], pbuf[:s, ::-1])", PER_ZERO),
    ("N and P swapped", RED,
     "p, q, w = pbuf[:s].reshape(s, n, n), qbuf[:s].reshape(s, n, n), wbuf[:s]",
     "q, p, w = pbuf[:s].reshape(s, n, n), qbuf[:s].reshape(s, n, n), wbuf[:s]", PER_ZERO),
    ("0 row dropped", RED, "            block[n] += np.sum(w[:, n], axis=0)\n", "", PER_ZERO),
    ("0 column dropped", RED, "w[:, :, n] = f[:, n]", "w[:, :, n] = 0", PER_ZERO),
    ("sub-batch buffers sized by the count", RED,
     "wbuf = np.empty((SUB_BATCH,) + f.shape", "wbuf = np.empty((taus.size,) + f.shape",
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
    ("sigma refusal removed", DIR, "if not (math.isfinite(sigma) and sigma > 1):", "if False:",
     ["tests/test_redundancy.py::TestNonFiniteSigma::test_library_routes_reject[nan]",
      "tests/test_redundancy.py::TestNonFiniteSigma::test_library_routes_reject[inf]"]),
    ("phase_average refusals removed", RED,
     "    if taus.size == 0:\n        raise EmptyRangeError(\"a phase average needs at least one "
     "ordinate\")\n    if not (np.isfinite(taus).all() and np.isfinite(xs).all()):\n"
     "        raise DomainError(\"phase average of a non-finite ordinate or argument\")\n", "",
     ["tests/test_redundancy.py::TestPhaseAverage::test_no_ordinates_refused[zero]",
      "tests/test_redundancy.py::TestPhaseAverage::test_non_finite_input_refused[nan]"]),
    ("non-finite T refusal removed", RED, "if not math.isfinite(t):", "if False:",
     ["tests/test_redundancy.py::TestNonFiniteT::test_every_window_refuses[nan]"]),
    ("ordinate order refusal removed", RED, "ok[1:] &= arr[1:] > arr[:-1]", "pass",
     ["tests/test_redundancy.py::TestZeroTable::test_parse_rejects_disorder"]),
    ("NaN s accepted by periodized_zeta", DIR,
     "if not (math.isfinite(s.real) and math.isfinite(s.imag) and s.real > 1):",
     "if s.real <= 1:",
     ["tests/test_dirichlet.py::TestPeriodizedZeta::test_non_finite_s_rejected[(nan+0j)]"]),
    ("PGM writer takes non-finite values", GRIDIO, "if not np.isfinite(arr).all():", "if False:",
     ["tests/test_io_cli.py::TestPgm::test_non_finite_values_refused[False-nan]"]),
    ("negative band limit ingested", GRIDIO, "    if n < 0:\n        raise DomainError(\"band",
     "    if False:\n        raise DomainError(\"band",
     ["tests/test_io_cli.py::TestIngest::test_negative_band_limit_refused"]),
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
    # hygiene and parsing
    ("number-byte check dropped", RED,
     "if joined.translate(None, _NUMBER_BYTES) != b\",\" * (len(lines) - 1):", "if False:",
     ["tests/test_io_cli.py::TestCliRedundancy::test_number_spellings_match_per_line_loader"
      "[true\\n-1]",
      "tests/test_io_cli.py::TestCliRedundancy::test_number_spellings_match_per_line_loader"
      "[14.1\\n1,2\\n-1]"]),
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
