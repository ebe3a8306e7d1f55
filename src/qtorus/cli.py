"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data or validation error.

_COMMANDS is the one description of the subcommands.  Each argument in it
is an input file, an output file or a parameter (--zeros is both), and run
builds the run record from those roles: it writes the record as a
<output>.manifest.json sidecar of each output given, once the handler has
succeeded.  The handlers compute and write their outputs, each atomically.

run builds the parser of the command named first in argv alone, a fifth
of the cost of building every subcommand; help, a missing command and an
unknown one take the parser of every command.  Both print the same text.

Numbers on the command line go through _int and _float, and the comma
lists of --alphas and --counts through one list type built on them.
"""

from __future__ import annotations

import argparse
import os
import sys

from .commutators import field_commutator
from .dynamics import (
    EvolveConfig,
    HarmonicSpec,
    LindbladSet,
    dissipative_constant,
    evolve_steps,
    growth_factors,
    linear_lambda,
)
from .errors import QTorusError
from .grids import CoeffGrid
from .gridio import (
    RunManifest,
    atomic_write_bytes,
    atomic_writer,
    ingest_pgm,
    read_grid,
    write_grid,
)
from .redundancy import _averaging_errors, broadband_average_2d_counts, load_zero_table
from .sobolev import SobolevWeight, norm
from .spectral import q_inverse, q_transform, s_map


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _number(kind):
    """An argparse type: kind(text) for kind int or float, refusing the
    non-ASCII digits and '_' separators that int() and float() accept but
    the file readers refuse."""
    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return kind(text)
    parse.__name__ = kind.__name__  # argparse names the type in its refusal
    return parse


_int, _float = _number(int), _number(float)


def _comma_list(kind, noun, refusal, low=None):
    """An argparse type: the comma-separated kind(token) of a text, empty tokens
    skipped; refusal when none is left or one is below low."""
    def parse(text: str):
        try:
            items = [kind(tok) for tok in text.split(",") if tok != ""]
        except ValueError:
            raise argparse.ArgumentTypeError("bad %s list %r" % (noun, text))
        if not items or (low is not None and min(items) < low):
            raise argparse.ArgumentTypeError(refusal)
        return items
    return parse


_alpha_list = _comma_list(_float, "alpha", "alpha list is empty")
_count_list = _comma_list(_int, "count", "counts must be positive integers", low=1)


def _lambda_spec(text: str):
    if text.startswith("linear:"):
        try:
            return ("linear", _float(text[len("linear:"):]))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError("expected linear:<c>, got %r" % text)


def cmd_smap(args):
    write_grid(args.out, s_map(read_grid(args.infile)))


def cmd_qtransform(args):
    f = read_grid(args.field)
    g = read_grid(args.imag) if args.imag else None
    write_grid(args.out, q_transform(f, g))


def cmd_qinverse(args):
    f, g = q_inverse(read_grid(args.infile))
    write_grid(args.out_real, f)
    write_grid(args.out_imag, g)


def cmd_ingest_pgm(args):
    write_grid(args.out, ingest_pgm(args.infile, args.n))


def cmd_norms(args):
    grid = read_grid(args.infile)
    lines = ["alpha,norm"]
    for alpha in args.alphas:
        lines.append("%s,%s" % (_fmt(alpha), _fmt(norm(grid, SobolevWeight(alpha)))))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        atomic_write_bytes(args.out, text.encode())


def cmd_evolve(args):
    field = read_grid(args.field)
    a0 = q_transform(field)
    c = read_grid(args.compact) if args.compact else None
    ls = [read_grid(p) for p in args.lindblad]
    lam = None if args.lam is None else linear_lambda(args.lam[1], field.n)
    lset = LindbladSet(c=c, ls=ls, lam=lam)
    h = HarmonicSpec(args.a, args.b, args.floor)
    cfg = EvolveConfig(t_end=args.t, dt=args.dt, alpha=args.alpha)
    diss_c = dissipative_constant(args.alpha, lset) if args.alpha >= 0 else float("nan")

    # rows go out as the stepper yields them; only the latest grid is held
    norm0 = None
    with atomic_writer(args.trace) as fh:
        fh.write(b"t,alpha_norm,bound_est_T2,bound_estimate_full\n")
        for t, alpha_norm, last in evolve_steps(a0, h, lset, cfg):
            if norm0 is None:
                norm0 = alpha_norm
            pure, full = growth_factors(diss_c, t)
            fh.write(("%s,%s,%s,%s\n" % (
                _fmt(t), _fmt(alpha_norm), _fmt(norm0 * pure), _fmt(norm0 * full))).encode())
        # the grid goes into place before the trace: a grid that fails leaves neither
        write_grid(args.out, q_inverse(CoeffGrid(a0.n, last, a0.tag))[0])


def cmd_redundancy(args):
    if not os.path.exists(args.zeros):
        raise FileNotFoundError("zero table not found: %s" % args.zeros)
    if not args.field:
        raise UsageError(
            "usage: qtorus redundancy --field <json> --sigma <real> --zeros <path> "
            "--counts <list> --out <csv>\n"
            "redundancy: --field is required"
        )
    field = read_grid(args.field)
    table = load_zero_table(args.zeros)
    rows = ["zero_count,T,l2_error_field,hs_error_operator"]
    zbars = broadband_average_2d_counts(field, args.sigma, table, args.counts)
    for count, (l2, hs) in zip(args.counts, _averaging_errors(zbars, field)):
        t = table.t_covering(count)
        rows.append("%d,%s,%s,%s" % (count, _fmt(t), _fmt(l2), _fmt(hs)))
    atomic_write_bytes(args.out, ("\n".join(rows) + "\n").encode())


def cmd_commutator(args):
    write_grid(args.out, field_commutator(read_grid(args.f), read_grid(args.g)))


def _arg(role, *flags, **kw):
    """An argument's role in the run record (in, out, param, or "in param"),
    its flags and its argparse keywords."""
    return flags, kw, role.split()


_IN, _OUT = _arg("in", "--in", dest="infile", required=True), _arg("out", "--out", required=True)

# name: (help, handler, arguments), the one description of every subcommand
_COMMANDS = {
    "smap": ("rearrange a fourier-real grid into a Hermitian one", cmd_smap, (_IN, _OUT)),
    "qtransform": ("Q-transform of a field (plus optional imaginary part)", cmd_qtransform, (
        _arg("in", "--field", required=True), _arg("in", "--imag"), _OUT)),
    "qinverse": ("split a matrix grid back into two fields", cmd_qinverse, (
        _IN, _arg("out", "--out-real", dest="out_real", required=True),
        _arg("out", "--out-imag", dest="out_imag", required=True))),
    "ingest-pgm": ("PGM image to Fourier coefficients", cmd_ingest_pgm, (
        _IN, _arg("param", "--n", type=_int, required=True), _OUT)),
    "norms": ("Sobolev norms of a grid for a list of alphas", cmd_norms, (
        _IN, _arg("param", "--alphas", type=_alpha_list, required=True), _arg("out", "--out"))),
    "evolve": ("evolve a field's observable under the master equation", cmd_evolve, (
        _arg("in", "--field", required=True),
        _arg("param", "--a", type=_float, required=True),
        _arg("param", "--b", type=_float, default=0.0),
        _arg("param", "--floor", type=_int),
        _arg("in", "--compact"),
        _arg("in", "--lindblad", action="append", default=[]),
        _arg("param", "--lambda", dest="lam", type=_lambda_spec),
        _arg("param", "--t", type=_float, required=True),
        _arg("param", "--dt", type=_float),
        _arg("param", "--alpha", type=_float, default=0.0),
        _arg("out", "--trace", required=True),
        _OUT)),
    "redundancy": ("broadband averaging error sweep over a zero table", cmd_redundancy, (
        _arg("in", "--field"),
        _arg("param", "--sigma", type=_float, default=3.0),
        _arg("in param", "--zeros", required=True),
        _arg("param", "--counts", type=_count_list, required=True),
        _OUT)),
    "commutator": ("field commutator of two fourier-real grids", cmd_commutator, (
        _arg("in", "--f", dest="f", required=True), _arg("in", "--g", dest="g", required=True),
        _OUT)),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The qtorus parser with every subcommand, or with only the named one.
    The one-command parser's usage line still lists every command, as the
    full parser's does, for the refusal of an argument after the command."""
    p = argparse.ArgumentParser(prog="qtorus")
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, _, args) in _COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text)
            for flags, kw, _ in args:
                sp.add_argument(*flags, **kw)
    return p


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs only its own subparser; help, no command or an
    # unknown one takes the full parser, whose texts list every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    _, handler, arguments = _COMMANDS[args.command]
    # the run record, in table order: each parameter under its flag name, and
    # the input and output paths given
    inputs, params, outputs = [], {"command": args.command}, []
    for flags, kw, roles in arguments:
        key = flags[0][2:]
        value = getattr(args, kw.get("dest", key.replace("-", "_")))
        if "param" in roles:
            params[key] = value
        if value and "in" in roles:
            inputs += value if isinstance(value, list) else [value]
        if value and "out" in roles:
            outputs.append(value)
    manifest = RunManifest(inputs, params)
    try:
        handler(args)
        for out in outputs:  # only a run that succeeds is recorded
            manifest.write_for(out)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (QTorusError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
