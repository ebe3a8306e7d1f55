"""Diagonal damping as a frequency filter, checked against the closed form.

Evolves a seeded random field under the diagonal jump family lambda_k = c*k.
Matrix entry (k, l) decays like exp(-c^2 (k-l)^2 t / 2), so content far from
the matrix diagonal dies first and the flow converges to its frozen diagonal.
Prints one row per time: the Sobolev norm, the worst surviving off-diagonal
band, and the gap to the long-time limit.
"""

import argparse

import numpy as np

from qtorus import (
    SobolevWeight,
    diagonal_lindblad_closed,
    evolve_steps,
    linear_lambda,
    norm,
    q_transform,
    EvolveConfig,
    HarmonicSpec,
    LindbladSet,
)
from qtorus.grids import CoeffGrid, FOURIER_REAL


def band_energies(a: CoeffGrid) -> np.ndarray:
    """Total |entry|^2 per off-diagonal distance |k-l| = 0..2n."""
    m = a.data.shape[0]
    out = np.zeros(m)
    for k in range(m):
        for l in range(m):
            out[abs(k - l)] += abs(a.data[k, l]) ** 2
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--rate", type=float, default=1.0, help="c in lambda_k = c*k")
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--times", default="0,0.05,0.2,1,5,20")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--check-rk4", action="store_true",
                    help="also integrate to the last time and report the gap")
    args = ap.parse_args()

    n = args.n
    m = 2 * n + 1
    rng = np.random.default_rng(args.seed)
    raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    raw = 0.5 * (raw + np.conj(raw[::-1, ::-1]))
    field = CoeffGrid(n, raw, FOURIER_REAL)

    a0 = q_transform(field)
    lam = linear_lambda(args.rate, n)
    wt = SobolevWeight(args.alpha)
    limit2 = float(np.sum(wt.weights(n).diagonal() * np.abs(np.diag(a0.data)) ** 2))

    times = [float(t) for t in args.times.split(",")]
    print("lambda_k = %g k on band limit %d, alpha = %g" % (args.rate, n, args.alpha))
    print("%10s %14s %18s %14s" % ("t", "alpha_norm", "widest_live_band", "limit_gap"))
    for t in times:
        at = diagonal_lindblad_closed(a0, lam, t)
        bands = band_energies(at)
        live = np.nonzero(bands > 1e-12 * bands.sum())[0]
        widest = int(live.max()) if live.size else 0
        gap = norm(at, wt) ** 2 - limit2
        print("%10.3f %14.6f %18d %14.3e" % (t, norm(at, wt), widest, gap))

    if args.check_rk4:
        t_end = times[-1]
        # the stepper `qtorus evolve` runs; only its final record is kept
        for _, _, last in evolve_steps(a0, HarmonicSpec(0.0), LindbladSet(lam=lam),
                                       EvolveConfig(t_end, dt=1e-3, alpha=args.alpha,
                                                    record_every=1000)):
            pass
        ref = diagonal_lindblad_closed(a0, lam, t_end)
        print("rk4 vs closed at t=%g: max entry gap %.3e"
              % (t_end, float(np.max(np.abs(last - ref.data)))))


if __name__ == "__main__":
    main()
