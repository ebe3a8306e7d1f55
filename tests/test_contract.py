"""The refusal contract of the public API, as one table.

Each row of ROWS names a public callable and the role of each argument it
checks, or the roles of one that two checks share (a window of finite
entries), with a valid value for every argument.  Each role has its bad
values, and each bad value must be refused with a DataError subclass, which
the CLI turns into exit code 2:

    role           what it takes           refused by
    band limit     an integer >= 0         errors._require_integer, then n >= 0
    count          an integer >= a least   errors._require_integer, then the range rule
    index          any integer             errors._require_integer
    real           a finite real           errors._require_finite
    non-negative   a finite real >= 0      errors._require_finite, with least 0
    complex        a finite complex        errors._require_finite_complex
    real array     finite real entries     errors._require_finite
    complex array  finite entries          errors._require_finite_complex
    window         a shape (2N+1,)         grids._window_band_limit

The integer roles take 2.5, 6.0, np.float64(6.0) and their valid value as
a float no more than NaN, a bool, a string or an integer past 64 bits; a
band limit and a count refuse -1 as well.  The real roles take a complex
type (1j, 3+0j, np.complex128(3), an array of complex dtype) no more than
NaN, a real array takes its valid entries spelt as strings no more, and a
non-negative real refuses -1.0 as well.  Each refusal is the helper's own:
a DomainError whose text starts with the argument's name, so a later shape
or window check that happens to refuse the value does not count; -1.0 must
get the helper's lower-bound text.  -1 alone may meet a range rule, in its
own class and words, and a row whose check names the bad entry says so in
its refusal.  A window takes an even length and length 0 no more, and an
array window a 0-d value no more; each is refused with the DimensionError of
grids._window_band_limit, whose text starts with the argument's name.  A
numpy integer gives the same bytes as the Python integer.
Every public callable of qtorus is a row or is in EXEMPT, with the reason.

A new refusal comes with a row here, not with a hand-written test.
"""

import dataclasses
import numbers
import re

import numpy as np
import pytest

import qtorus
from qtorus import (
    FOURIER_REAL,
    ArithmeticSeq,
    CoeffGrid,
    DataError,
    DimensionError,
    DomainError,
    EvolveConfig,
    FormatError,
    HarmonicSpec,
    LindbladSet,
    SampleGrid,
    SobolevWeight,
    ZeroTable,
    ZetaParams,
    analyze,
    apply_D,
    apply_D_inv,
    broadband_average_1d,
    broadband_average_2d,
    broadband_average_2d_counts,
    broadband_average_2d_per_zero,
    c_d,
    center_fit,
    d_matrix,
    default_dt,
    diagonal_lindblad_closed,
    dissipative_constant,
    drift_oracle,
    estimated_operator_norm,
    evolve_rk4,
    evolve_steps,
    grid_to_json,
    growth_bound,
    heisenberg_closed,
    index_range,
    ingest_pgm,
    linear_lambda,
    moebius,
    periodized_zeta,
    phase_average,
    single_entry,
    unit_sequence,
    write_grid,
    write_pgm,
)
from qtorus.dirichlet import moebius_inverse_rows
from qtorus.grids import kl_mesh

BAND, COUNT, INDEX, REAL, NON_NEGATIVE, COMPLEX, REAL_ARRAY, COMPLEX_ARRAY, WINDOW = (
    "band limit", "count", "index", "real", "non-negative real", "complex", "real array",
    "complex array", "window")

_NOT_INTEGERS = [("nan", float("nan")), ("inf", float("inf")), ("-inf", -float("inf")),
                 ("2.5", 2.5), ("6.0", 6.0), ("float64-6.0", np.float64(6.0)),
                 ("True", True), ("str", "3"), ("10**400", 10**400)]
_NOT_FINITE = [("nan", float("nan")), ("inf", float("inf")), ("-inf", -float("inf")),
               ("True", True), ("str", "3"), ("10**400", 10**400)]
_NOT_REAL = _NOT_FINITE + [("1j", 1j), ("3+0j", 3 + 0j), ("complex128-3", np.complex128(3))]
_NOT_FINITE_ENTRIES = [("nan-entry", float("nan")), ("inf-entry", float("inf")),
                       ("-inf-entry", -float("inf"))]
BAD = {
    BAND: _NOT_INTEGERS + [("-1", -1)],
    COUNT: _NOT_INTEGERS + [("-1", -1)],
    INDEX: _NOT_INTEGERS,
    REAL: _NOT_REAL,
    NON_NEGATIVE: _NOT_REAL + [("-1.0", -1.0)],
    COMPLEX: _NOT_FINITE + [("2+nanj", complex(2.0, float("nan"))),
                            ("nan+0j", complex(float("nan"), 0.0)),
                            ("2+infj", complex(2.0, float("inf")))],
    REAL_ARRAY: _NOT_FINITE_ENTRIES + [("1j-entry", 1j), ("0j-entry", 0j), ("valid-as-str", str)],
    COMPLEX_ARRAY: _NOT_FINITE_ENTRIES + [("-infj-entry", complex(0.0, -float("inf")))],
    WINDOW: [("even-length", 4), ("length-0", 0)],  # and, for an array, "0-d"
}
INTEGER_ROLES = (BAND, COUNT, INDEX)

ZEROS = ZeroTable(np.array([14.134725142, 21.022039639, 25.010857580, 30.424876126,
                            32.935061588]))
A0 = np.array(single_entry(2, 1, 2, 1.0).data)  # support above the floor 0
_F2 = np.zeros((5, 5), dtype=np.complex128)
_F2[3, 3] = _F2[1, 1] = 1.0  # z[1,1] = z[-1,-1] = 1: a fourier-real field
F2 = CoeffGrid(2, _F2, FOURIER_REAL)
LAM = linear_lambda(0.5, 2)
X = np.array([0.5, 1.0 - 1.0j, 2.0, 0.25j, -1.0])
SEQ = np.array([0.0, 1.0, 0.25, 1.0 / 9.0, 0.0625])  # 1-based: a_k = k^-2


def _write_pgm_file(values, maxval):
    write_pgm("img.pgm", values, maxval)
    with open("img.pgm", "rb") as fh:
        return fh.read()


def _ingest(n):
    write_pgm("in.pgm", np.full((5, 5), 0.5))
    return ingest_pgm("in.pgm", n)


def _write_grid_file(data):
    write_grid("g.json", CoeffGrid(2, data))
    with open("g.json", "rb") as fh:
        return fh.read()


def _evolve_records(record_every):
    cfg = EvolveConfig(0.05, 0.01, record_every=record_every)
    return [(t, norm) for t, norm, _ in evolve_steps(F2, HarmonicSpec(1.0), None, cfg)]


class Row:
    """A public callable: call(**args) with a (role or tuple of roles, valid
    value) per argument.  refusal, when given, is the (class, text) of a
    check that names the bad entry in place of the helpers'."""

    def __init__(self, name, call, refusal=None, **args):
        self.name, self.call, self.refusal, self.args = name, call, refusal, args

    def valid(self) -> dict:
        return {arg: value for arg, (_, value) in self.args.items()}

    def roles(self):
        """(argument, role, valid value), one for each role of each argument."""
        for arg, (roles, valid) in self.args.items():
            for role in roles if isinstance(roles, tuple) else (roles,):
                yield arg, role, valid


_GRID_ENTRY = (FormatError, r"^cannot write grid JSON: entry \d+ \(k=-?\d+, l=-?\d+\) is not")

ROWS = [
    # grids: a band limit is checked where the window is built
    Row("CoeffGrid", lambda n: CoeffGrid(n, np.zeros((3, 3))), n=(BAND, 1)),
    Row("CoeffGrid.entry", lambda k, l: CoeffGrid(3, np.eye(7)).entry(k, l),
        k=(INDEX, 1), l=(INDEX, -2)),
    Row("single_entry", lambda n, k, l: single_entry(n, k, l, 1.5),
        n=(BAND, 2), k=(INDEX, 1), l=(INDEX, -1)),
    Row("index_range", index_range, n=(BAND, 3)),
    Row("kl_mesh", kl_mesh, n=(BAND, 3)),
    Row("SampleGrid", SampleGrid, m=(COUNT, 3), values=(COMPLEX_ARRAY, np.zeros((3, 3)))),
    # spectral: samples is the side of the SampleGrid
    Row("analyze", lambda samples: analyze(SampleGrid(samples, np.ones((samples, samples)))),
        samples=(WINDOW, 3)),
    # dirichlet
    Row("moebius", moebius, n=(COUNT, 6)),
    Row("unit_sequence", unit_sequence, lmax=(COUNT, 4)),
    Row("ArithmeticSeq", ArithmeticSeq, a=(COMPLEX_ARRAY, np.array([0.0, 1.0, 0.5j, 0.25]))),
    Row("ZetaParams", ZetaParams, sigma=(REAL, 2.0), tau=(REAL, 0.5)),
    Row("ZetaParams.sequence", lambda lmax: ZetaParams(2.0, 0.5).sequence(lmax),
        lmax=(COUNT, 4)),
    Row("ZetaParams.moebius_inverse", lambda lmax: ZetaParams(2.0, 0.5).moebius_inverse(lmax),
        lmax=(COUNT, 4)),
    Row("moebius_inverse_rows", lambda sigma, lmax: moebius_inverse_rows(sigma, [1.0], lmax),
        sigma=(REAL, 2.0), lmax=(COUNT, 4)),
    Row("d_matrix", lambda n: d_matrix(SEQ, n), n=(BAND, 3)),
    Row("estimated_operator_norm", lambda n: estimated_operator_norm(ArithmeticSeq(SEQ), n),
        n=(BAND, 3)),
    Row("apply_D", lambda x: apply_D(ArithmeticSeq(SEQ), x), x=((WINDOW, COMPLEX_ARRAY), X)),
    Row("apply_D_inv", lambda x: apply_D_inv(ArithmeticSeq(SEQ), x),
        x=((WINDOW, COMPLEX_ARRAY), X)),
    Row("periodized_zeta", periodized_zeta,
        s=(COMPLEX, 2.0 + 1.0j), t=(REAL, 0.1), terms=(COUNT, 5)),
    # dynamics
    Row("HarmonicSpec", lambda a, b, floor: HarmonicSpec(a, b, floor).levels(3),
        a=(REAL, 1.0), b=(REAL, 0.25), floor=(INDEX, 0)),
    Row("HarmonicSpec.levels", lambda n: HarmonicSpec(1.0, 0.25).levels(n), n=(BAND, 3)),
    Row("HarmonicSpec.gaps", lambda n: HarmonicSpec(1.0, 0.25).gaps(n), n=(BAND, 3)),
    Row("linear_lambda", linear_lambda, c=(COMPLEX, 0.5 + 0.25j), n=(BAND, 2)),
    Row("default_dt", lambda n: default_dt(HarmonicSpec(1.0), n), n=(BAND, 3)),
    Row("LindbladSet", lambda lam: LindbladSet(lam=lam).phi_matrix(), lam=(COMPLEX_ARRAY, LAM)),
    Row("LindbladSet.n", lambda lam: LindbladSet(lam=lam).n, lam=(WINDOW, LAM)),
    Row("EvolveConfig", EvolveConfig, t_end=(NON_NEGATIVE, 0.05), dt=(REAL, 0.01),
        alpha=(REAL, 1.0), record_every=(COUNT, 2)),
    Row("evolve_steps.record_every", _evolve_records, record_every=(COUNT, 2)),
    Row("heisenberg_closed",
        lambda a0, t: heisenberg_closed(CoeffGrid(2, a0), HarmonicSpec(1.0, floor=0), t),
        a0=(COMPLEX_ARRAY, A0), t=(REAL, 0.1)),
    Row("drift_oracle", lambda a, t: drift_oracle(F2, a, t), a=(REAL, 1.0), t=(REAL, 0.1)),
    Row("diagonal_lindblad_closed",
        lambda lam, t: diagonal_lindblad_closed(CoeffGrid(2, A0), lam, t),
        lam=(COMPLEX_ARRAY, LAM), t=(NON_NEGATIVE, 0.1)),
    # t_end = 0 takes no step: only the entry check sees the initial grid
    Row("evolve_rk4", lambda a0: evolve_rk4(CoeffGrid(2, a0), HarmonicSpec(1.0), None,
                                            EvolveConfig(0.0)), a0=(COMPLEX_ARRAY, A0)),
    Row("evolve_steps", lambda a0: list(evolve_steps(
        CoeffGrid(2, a0), HarmonicSpec(1.0), LindbladSet(lam=LAM), EvolveConfig(0.02, 0.01))),
        a0=(COMPLEX_ARRAY, A0)),
    Row("dissipative_constant", lambda alpha: dissipative_constant(alpha, LindbladSet(lam=LAM)),
        alpha=(REAL, 1.0)),
    Row("growth_bound", lambda alpha, t: growth_bound(alpha, LindbladSet(lam=LAM), t),
        alpha=(NON_NEGATIVE, 1.0), t=(NON_NEGATIVE, 0.5)),
    # sobolev
    Row("SobolevWeight", SobolevWeight, alpha=(REAL, 1.0)),
    Row("SobolevWeight.weights", lambda n: SobolevWeight(1.0).weights(n), n=(BAND, 3)),
    # redundancy
    Row("ZeroTable", ZeroTable, refusal=(FormatError, r"^ordinate \d+ is .*; ordinates must be"),
        ordinates=(REAL_ARRAY, ZEROS.ordinates)),
    Row("ZeroTable.count_below", ZEROS.count_below, t=(REAL, 22.0)),
    Row("ZeroTable.upto", ZEROS.upto, t=(REAL, 22.0)),
    Row("ZeroTable.t_covering", ZEROS.t_covering, count=(COUNT, 3)),
    Row("phase_average", phase_average,
        taus=(REAL_ARRAY, ZEROS.ordinates), xs=(REAL_ARRAY, np.array([-0.5, 0.0, 0.7]))),
    Row("c_d", lambda d, sigma, t: c_d(d, sigma, ZEROS, t),
        d=(COUNT, 2), sigma=(REAL, 3.0), t=(REAL, 40.0)),
    Row("broadband_average_1d", lambda fhat, sigma, t: broadband_average_1d(fhat, sigma, ZEROS, t),
        fhat=((WINDOW, COMPLEX_ARRAY), F2.data[:, 1].copy()), sigma=(REAL, 3.0), t=(REAL, 40.0)),
    Row("broadband_average_2d", lambda sigma, t: broadband_average_2d(F2, sigma, ZEROS, t),
        sigma=(REAL, 3.0), t=(REAL, 40.0)),
    Row("broadband_average_2d_counts",
        lambda sigma, count: broadband_average_2d_counts(F2, sigma, ZEROS, [count]),
        sigma=(REAL, 3.0), count=(COUNT, 3)),
    Row("broadband_average_2d_per_zero",
        lambda sigma, t: broadband_average_2d_per_zero(F2, sigma, ZEROS, t),
        sigma=(REAL, 3.0), t=(REAL, 40.0)),
    # gridio: the writers name the bad entry, the readers are exempt
    Row("write_pgm", _write_pgm_file,
        values=(REAL_ARRAY, np.full((3, 3), 0.5)), maxval=(COUNT, 255)),
    Row("center_fit", lambda side: center_fit(np.ones((5, 5)), side), side=(COUNT, 3)),
    Row("ingest_pgm", _ingest, n=(BAND, 2)),
    Row("write_grid", _write_grid_file, refusal=_GRID_ENTRY, data=(COMPLEX_ARRAY, A0)),
    Row("grid_to_json", lambda data: grid_to_json(CoeffGrid(2, data)), refusal=_GRID_ENTRY,
        data=(COMPLEX_ARRAY, A0)),
]

_GRID_ONLY = "its arguments are grids, whose band limits CoeffGrid checks, and " \
             "symmetries the routine checks itself"
EXEMPT = {
    "growth_factors": "takes NaN by design on the trace path: a NaN constant gives NaN factors",
    "GrowthBound": "a record of what growth_bound computed",
    "PeriodizedZeta": "a record of what periodized_zeta computed",
    "TrajectoryPoint": "a record of what evolve_rk4 computed",
    "RunManifest": "records the run's parameters as given, for the JSON sidecar",
    "KahanAccumulator": "the averaging routes' own summation state; its shape is a numpy shape",
    "grid_from_json": "a file reader: names the bad entry (FormatError, test_io_cli)",
    "read_grid": "a file reader: names the bad entry (FormatError, test_io_cli)",
    "read_pgm": "a file reader: names the bad header field or pixel (FormatError, test_io_cli)",
    "load_zero_table": "a file reader: names the bad line; ZeroTable, a row, checks the values",
    "dirichlet_convolve": "ring arithmetic on raw 1-based arrays, the oracle of the closed forms",
    "dirichlet_inverse": "ring arithmetic on raw 1-based arrays, the oracle of the closed forms",
    "operator_norm_bound": "its one argument is an ArithmeticSeq, a row",
    "lindblad_rhs": "its arguments are CoeffGrid, HarmonicSpec and LindbladSet, all rows",
    **{name: _GRID_ONLY for name in (
        "averaging_errors", "commutator_pairing", "d_transform_2d", "field_commutator",
        "field_commutator_complex", "fourier_real_deviation", "hermitian_deviation",
        "hermitian_split", "inner", "norm", "op_commutator", "q_inverse", "q_transform",
        "qd_transform", "require_fourier_real", "require_hermitian", "s_inv", "s_map",
        "synthesize")},
}


def _own_bad_values(role, valid) -> list:
    """The bad values made from the valid one: an integer as a float, an array window as 0-d."""
    if role in INTEGER_ROLES:
        return [("valid-as-float", float(valid))]
    return [("0-d", None)] if role == WINDOW and np.ndim(valid) else []


def _bad_value(role, valid, value):
    if role == WINDOW:  # a length, or None for a 0-d array
        if not np.ndim(valid):
            return value
        return valid.flat[0] if value is None else np.resize(valid, (value,) + valid.shape[1:])
    if role not in (REAL_ARRAY, COMPLEX_ARRAY):
        return value
    if value is str:  # the valid entries spelt as strings, so that only a type check refuses
        return np.asarray(valid).astype(str)
    arr = np.array(valid, dtype=np.result_type(valid, value))
    arr.flat[-1] = value
    return arr


def _refusal(row, arg, role, label):
    """The (class, text) a bad value must be refused with."""
    if role == WINDOW:
        return DimensionError, r"^%s must have shape \(2N\+1,\), got" % re.escape(arg)
    if label == "-1":
        return DataError, None  # a range rule, in its own class and words
    if label == "-1.0":
        return DomainError, r"^%s must be >= 0, got -1\.0$" % re.escape(arg)
    return row.refusal or (DomainError, r"^(entries of )?%s must (be an integer|fit in 64 "
                                        r"bits|be finite|be real)" % re.escape(arg))


CASES = [pytest.param(row, arg, _bad_value(role, valid, value), _refusal(row, arg, role, label),
                      id="%s-%s-%s" % (row.name, arg, label))
         for row in ROWS for arg, role, valid in row.roles()
         for label, value in BAD[role] + _own_bad_values(role, valid)]

INTEGER_CASES = [pytest.param(row, arg, kind, id="%s-%s-%s" % (row.name, arg, kind.__name__))
                 for row in ROWS for arg, role, _ in row.roles()
                 if role in INTEGER_ROLES for kind in (np.int64, np.int32)]


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the file rows write beside their inputs


def _bytes(result) -> bytes:
    """The bytes of a result: arrays by dtype and buffer, integers by value
    (a container keeps the integer it was given), the rest field by field."""
    if isinstance(result, np.ndarray):
        return result.dtype.str.encode() + result.tobytes()
    if isinstance(result, numbers.Integral):
        return b"%d" % result
    if isinstance(result, (float, complex, np.inexact)):
        return np.asarray(result).tobytes()
    if isinstance(result, (str, bytes)):
        return result.encode() if isinstance(result, str) else result
    if result is None:
        return b"None"
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return b"(" + b",".join(_bytes(part) for part in result) + b")"
    raise TypeError("no bytes for %r" % (result,))


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_valid_call_succeeds(row):
    assert _bytes(row.call(**row.valid()))


@pytest.mark.parametrize("row,arg,bad,refusal", CASES)
def test_bad_value_refused(row, arg, bad, refusal):
    kind, text = refusal
    with pytest.raises(kind, match=text):
        row.call(**dict(row.valid(), **{arg: bad}))


@pytest.mark.parametrize("row,arg,kind", INTEGER_CASES)
def test_numpy_integer_gives_the_same_bytes(row, arg, kind):
    valid = row.valid()
    as_numpy = row.call(**dict(valid, **{arg: kind(valid[arg])}))
    assert _bytes(as_numpy) == _bytes(row.call(**valid))


def _public_callables():
    """Every callable the package exports but its exception types."""
    return {name for name, obj in vars(qtorus).items()
            if not name.startswith("_") and callable(obj)
            and not (isinstance(obj, type) and issubclass(obj, BaseException))}


def test_every_public_callable_is_a_row_or_exempt():
    public = _public_callables()
    assert {"index_range", "c_d", "CoeffGrid", "growth_factors"} <= public
    rows = {row.name.split(".")[0] for row in ROWS} & public
    assert not rows & set(EXEMPT), "both a row and exempt: %r" % sorted(rows & set(EXEMPT))
    assert set(EXEMPT) <= public, "stale exemptions: %r" % sorted(set(EXEMPT) - public)
    assert public - rows - set(EXEMPT) == set()


def test_rows_are_distinct_and_every_role_is_fed():
    names = [row.name for row in ROWS]
    assert len(set(names)) == len(names)
    assert {role for row in ROWS for _, role, _ in row.roles()} == set(BAD)
