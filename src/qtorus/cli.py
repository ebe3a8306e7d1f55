"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data or validation error.
Every file output is written atomically and gets a .manifest.json
sidecar echoing inputs and parameters.
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
from .redundancy import averaging_errors, broadband_average_2d_counts, load_zero_table
from .sobolev import SobolevWeight, norm
from .spectral import q_inverse, q_transform, s_map


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _alpha_list(text: str):
    try:
        alphas = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("bad alpha list %r" % text)
    if not alphas:
        raise argparse.ArgumentTypeError("alpha list is empty")
    return alphas


def _count_list(text: str):
    try:
        counts = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("bad count list %r" % text)
    if not counts or any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError("counts must be positive integers")
    return counts


def _lambda_spec(text: str):
    if text.startswith("linear:"):
        try:
            return ("linear", float(text[len("linear:"):]))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError("expected linear:<c>, got %r" % text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qtorus")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("smap", help="rearrange a fourier-real grid into a Hermitian one")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=cmd_smap)

    sp = sub.add_parser("qtransform", help="Q-transform of a field (plus optional imaginary part)")
    sp.add_argument("--field", required=True)
    sp.add_argument("--imag")
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=cmd_qtransform)

    sp = sub.add_parser("qinverse", help="split a matrix grid back into two fields")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out-real", dest="out_real", required=True)
    sp.add_argument("--out-imag", dest="out_imag", required=True)
    sp.set_defaults(handler=cmd_qinverse)

    sp = sub.add_parser("ingest-pgm", help="PGM image to Fourier coefficients")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=cmd_ingest_pgm)

    sp = sub.add_parser("norms", help="Sobolev norms of a grid for a list of alphas")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--alphas", type=_alpha_list, required=True)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_norms)

    sp = sub.add_parser("evolve", help="evolve a field's observable under the master equation")
    sp.add_argument("--field", required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, default=0.0)
    sp.add_argument("--floor", type=int)
    sp.add_argument("--compact")
    sp.add_argument("--lindblad", action="append", default=[])
    sp.add_argument("--lambda", dest="lam", type=_lambda_spec)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--trace", required=True)
    sp.set_defaults(handler=cmd_evolve)

    sp = sub.add_parser("redundancy", help="broadband averaging error sweep over a zero table")
    sp.add_argument("--field")
    sp.add_argument("--sigma", type=float, default=3.0)
    sp.add_argument("--zeros", required=True)
    sp.add_argument("--counts", type=_count_list, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=cmd_redundancy)

    sp = sub.add_parser("commutator", help="field commutator of two fourier-real grids")
    sp.add_argument("--f", dest="f", required=True)
    sp.add_argument("--g", dest="g", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=cmd_commutator)

    return p


def cmd_smap(args) -> int:
    manifest = RunManifest([args.infile], {"command": "smap"})
    w = s_map(read_grid(args.infile))
    write_grid(args.out, w)
    manifest.write_for(args.out)
    return 0


def cmd_qtransform(args) -> int:
    inputs = [args.field] + ([args.imag] if args.imag else [])
    manifest = RunManifest(inputs, {"command": "qtransform"})
    f = read_grid(args.field)
    g = read_grid(args.imag) if args.imag else None
    write_grid(args.out, q_transform(f, g))
    manifest.write_for(args.out)
    return 0


def cmd_qinverse(args) -> int:
    manifest = RunManifest([args.infile], {"command": "qinverse"})
    f, g = q_inverse(read_grid(args.infile))
    write_grid(args.out_real, f)
    write_grid(args.out_imag, g)
    manifest.write_for(args.out_real)
    manifest.write_for(args.out_imag)
    return 0


def cmd_ingest_pgm(args) -> int:
    manifest = RunManifest([args.infile], {"command": "ingest-pgm", "n": args.n})
    grid = ingest_pgm(args.infile, args.n)
    write_grid(args.out, grid)
    manifest.write_for(args.out)
    return 0


def cmd_norms(args) -> int:
    grid = read_grid(args.infile)
    lines = ["alpha,norm"]
    for alpha in args.alphas:
        lines.append("%s,%s" % (_fmt(alpha), _fmt(norm(grid, SobolevWeight(alpha)))))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        manifest = RunManifest([args.infile],
                               {"command": "norms", "alphas": args.alphas})
        atomic_write_bytes(args.out, text.encode())
        manifest.write_for(args.out)
    return 0


def cmd_evolve(args) -> int:
    inputs = [args.field] + ([args.compact] if args.compact else []) + list(args.lindblad)
    params = {
        "command": "evolve", "a": args.a, "b": args.b, "floor": args.floor,
        "lambda": args.lam, "t": args.t, "dt": args.dt, "alpha": args.alpha,
    }
    manifest = RunManifest(inputs, params)

    field = read_grid(args.field)
    a0 = q_transform(field)
    c = read_grid(args.compact) if args.compact else None
    ls = [read_grid(p) for p in args.lindblad]
    lam = None
    if args.lam is not None:
        lam = linear_lambda(args.lam[1], field.n)
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
    manifest.write_for(args.trace)

    evolved_field, _ = q_inverse(CoeffGrid(a0.n, last, a0.tag))
    write_grid(args.out, evolved_field)
    manifest.write_for(args.out)
    return 0


def cmd_redundancy(args) -> int:
    if not os.path.exists(args.zeros):
        raise FileNotFoundError("zero table not found: %s" % args.zeros)
    if not args.field:
        raise UsageError(
            "usage: qtorus redundancy --field <json> --sigma <real> --zeros <path> "
            "--counts <list> --out <csv>\n"
            "redundancy: --field is required"
        )
    params = {
        "command": "redundancy", "sigma": args.sigma, "counts": args.counts,
        "zeros": args.zeros,
    }
    manifest = RunManifest([args.field, args.zeros], params)
    field = read_grid(args.field)
    table = load_zero_table(args.zeros)
    rows = ["zero_count,T,l2_error_field,hs_error_operator"]
    zbars = broadband_average_2d_counts(field, args.sigma, table, args.counts)
    for count, zbar in zip(args.counts, zbars):
        t = table.t_covering(count)
        l2, hs = averaging_errors(zbar, field)
        rows.append("%d,%s,%s,%s" % (count, _fmt(t), _fmt(l2), _fmt(hs)))
    atomic_write_bytes(args.out, ("\n".join(rows) + "\n").encode())
    manifest.write_for(args.out)
    return 0


def cmd_commutator(args) -> int:
    manifest = RunManifest([args.f, args.g], {"command": "commutator"})
    out = field_commutator(read_grid(args.f), read_grid(args.g))
    write_grid(args.out, out)
    manifest.write_for(args.out)
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (QTorusError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
