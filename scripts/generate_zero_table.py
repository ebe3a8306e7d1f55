"""Generate a table of Riemann zeta zero ordinates for ingestion.

Writes one positive decimal ordinate per line, strictly increasing,
with '#' comment lines, matching the format read by qtorus.load_zero_table.
Resumable: re-running with the same --out appends after the last line written
and rewrites the header's count.  A resume with a --dps other than the one
the header records is refused with exit code 2, so one table never mixes
working precisions.

Requires mpmath (not a runtime dependency of the package itself).
"""

import argparse
import os
import re
import sys
import time

import mpmath as mp

COUNT_LINE = ("# imaginary parts of the first %d nontrivial zeros "
              "of the Riemann zeta function\n")
DPS_LINE = "# computed with mpmath.zetazero, %d decimal digits working precision\n"
COUNT_RE = re.compile(re.escape(COUNT_LINE).replace("%d", "[0-9]+"))
DPS_RE = re.compile(re.escape(DPS_LINE).replace("%d", "([0-9]+)"))


def recorded_dps(path):
    """The working precision the header records, or None without such a line."""
    with open(path) as fh:
        for line in fh:
            match = DPS_RE.fullmatch(line)
            if match:
                return int(match.group(1))
    return None


def rewrite_count(path, count):
    """Replace the header's count line, through a temporary file and a rename."""
    with open(path) as fh:
        lines = fh.readlines()
    lines = [COUNT_LINE % count if COUNT_RE.fullmatch(line) else line for line in lines]
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)


def data_lines(path):
    """The table's data lines, stripped, blanks and '#' comments skipped; none
    for a table not yet written."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [line for line in map(str.strip, fh) if line and not line.startswith("#")]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=10000)
    ap.add_argument("--out", required=True)
    ap.add_argument("--dps", type=int, default=20)
    ap.add_argument("--decimals", type=int, default=13)
    ap.add_argument("--validate", type=int, default=0, metavar="K",
                    help="check |zeta(1/2 + i tau)| < 1e-6 for the first K entries")
    args = ap.parse_args()

    mp.mp.dps = args.dps
    start = len(data_lines(args.out)) + 1
    if start > 1:
        dps = recorded_dps(args.out)
        if dps is not None and dps != args.dps:
            sys.stderr.write("%s was computed at --dps %d; resuming at --dps %d would "
                             "mix precisions\n" % (args.out, dps, args.dps))
            sys.exit(2)
    if start > args.count:
        print("table already has %d entries" % (start - 1))
    else:
        mode = "a" if start > 1 else "w"
        with open(args.out, mode) as fh:
            if mode == "w":
                fh.write(COUNT_LINE % args.count)
                fh.write(DPS_LINE % args.dps)
            t0 = time.time()
            for n in range(start, args.count + 1):
                tau = mp.zetazero(n).imag
                fh.write(mp.nstr(tau, args.decimals + 5, strip_zeros=False))
                fh.write("\n")
                if n % 200 == 0:
                    fh.flush()
                    rate = (n - start + 1) / (time.time() - t0)
                    sys.stderr.write("  %d/%d (%.1f zeros/s)\n"
                                     % (n, args.count, rate))
        if mode == "a":
            rewrite_count(args.out, args.count)
        print("wrote %s" % args.out)

    if args.validate:
        bad = 0
        taus = data_lines(args.out)  # strings: mpmath gets every digit
        for tau in taus[:args.validate]:
            r = abs(mp.zeta(mp.mpc("0.5", tau)))
            if r >= 1e-6:
                print("FAIL tau=%s |zeta|=%s" % (tau, mp.nstr(r, 5)))
                bad += 1
        print("validated first %d entries, %d failures"
              % (min(args.validate, len(taus)), bad))
        if bad:
            sys.exit(2)


if __name__ == "__main__":
    main()
