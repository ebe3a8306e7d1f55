"""Sweep broadband-averaging error over zero count and decay exponent.

For each sigma, averages the re-encoded field over the first `count`
zero ordinates for every count in one pass over the table, and reports
the l2 recovery error. Output is CSV on stdout (or --out), one row per
(sigma, count) cell of the sweep.  The lists are read as `qtorus
redundancy` reads --counts.  A bad list, a count the table cannot cover, a
sigma outside (1, inf) and a file that cannot be read or written are each
refused with one line and exit code 2; --out is written atomically.

Example:
    python scripts/redundancy_sweep.py --zeros data/zeta_zeros_10k.txt \
        --field cosxy --sigmas 2,3,5 --counts 10,100,1000,10000
"""

import argparse
import sys

import numpy as np

from qtorus import (
    FOURIER_REAL,
    CoeffGrid,
    DataError,
    averaging_errors,
    broadband_average_2d_counts,
    load_zero_table,
    read_grid,
)
from qtorus.cli import _comma_list, _count_list, _float, _int
from qtorus.gridio import atomic_write_bytes


def named_field(name: str, n: int, seed: int) -> CoeffGrid:
    m = 2 * n + 1
    raw = np.zeros((m, m), dtype=complex)
    if name == "cosx":
        raw[n + 1, n] = raw[n - 1, n] = 0.5
    elif name == "cosxy":
        raw[n + 1, n + 1] = raw[n - 1, n - 1] = 0.5
    elif name == "random4":
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        raw[n - 4:n + 5, n - 4:n + 5] = block
        raw = 0.5 * (raw + np.conj(raw[::-1, ::-1]))
    else:
        raise SystemExit("unknown field %r (cosx, cosxy, random4)" % name)
    return CoeffGrid(n, raw, FOURIER_REAL)


_sigma_list = _comma_list(_float, "sigma", "sigma list is empty")


def sweep(args) -> list:
    """The CSV lines of the sweep, header first."""
    sigmas, counts = _sigma_list(args.sigmas), _count_list(args.counts)
    table = load_zero_table(args.zeros)
    if args.field in ("cosx", "cosxy", "random4"):
        field = named_field(args.field, args.n, args.seed)
    else:
        field = read_grid(args.field)
    rows = ["field,sigma,zero_count,T,l2_error,hs_error"]
    for sigma in sigmas:
        zbars = broadband_average_2d_counts(field, sigma, table, counts)
        for count, zbar in zip(counts, zbars):
            t = table.t_covering(count)
            l2, hs = averaging_errors(zbar, field)
            rows.append("%s,%g,%d,%.6f,%.6e,%.6e"
                        % (args.field, sigma, count, t, l2, hs))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--zeros", required=True)
    ap.add_argument("--field", default="cosxy",
                    help="cosx | cosxy | random4 | path to a grid JSON")
    ap.add_argument("--n", type=_int, default=16, help="band limit for named fields")
    ap.add_argument("--sigmas", default="2,3,5")
    ap.add_argument("--counts", default="10,100,1000,10000")
    ap.add_argument("--seed", type=_int, default=0)
    ap.add_argument("--out", help="CSV path (default stdout)")
    args = ap.parse_args()
    try:
        rows = sweep(args)
        text = "\n".join(rows) + "\n"
        if args.out:
            atomic_write_bytes(args.out, text.encode())
    except (argparse.ArgumentTypeError, DataError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
    if args.out:
        print("wrote %s (%d rows)" % (args.out, len(rows) - 1), file=sys.stderr)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
