"""The four qbench workloads: seeded inputs, one operation each, output checks.

Each workload is a closed loop with one client: the child process runs one
operation, checks its output, and only then starts the next.  The program
under test sees nothing but the grid files written by `make_inputs` and the
shipped zero table `data/zeta_zeros_10k.txt`.

Inputs are written by running this file:

    python3 qbench/workloads.py NAME SEED DIR

in a process of its own, so that the parent of the measured children never
holds numpy or large inputs: a child process starts with the peak RSS of its
parent, and `peak_rss_mb` would read the parent's peak instead of the
child's.  Everything else runs in a child after `src/` is on `sys.path`.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

ZEROS = os.path.join("data", "zeta_zeros_10k.txt")
SIGMA = 3.0
SWEEP_N = 16
SWEEP_COUNTS = (10, 100, 1000, 10000)
ROUTE_N = 16
ROUTE_COUNT = 1000
EVOLVE_N = 32
EVOLVE_T = 0.2
EVOLVE_DT = 1e-3
GRID_N = 64
NORM_ALPHAS = (0.0, 1.0, 2.0)


# ---------------------------------------------------------------- inputs

def smooth_field(rng: np.random.Generator, n: int) -> np.ndarray:
    """Fourier-real coefficients with |z[k,l]| ~ (1+k^2+l^2)^-1.5.

    The decay keeps high Sobolev norms of the field (and so `evolve`)
    finite; the symmetrisation is exact in floating point.
    """
    m = 2 * n + 1
    raw = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) * _decay(n)
    z = 0.5 * (raw + np.conj(raw[::-1, ::-1]))
    z[n, n] = z[n, n].real
    return z


def lindblad_operator(rng: np.random.Generator, n: int) -> np.ndarray:
    """A general (non-Hermitian) operator with the same decay, spectral norm 1."""
    m = 2 * n + 1
    raw = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) * _decay(n)
    return raw / np.linalg.norm(raw, 2)


def _decay(n: int) -> np.ndarray:
    idx = np.arange(-n, n + 1)
    k, l = np.meshgrid(idx, idx, indexing="ij")
    return (1.0 + k * k + l * l) ** -1.5


def write_grid_json(path: str, n: int, tag: str, data: np.ndarray):
    """The program's grid JSON format, written without the program's code."""
    entries = [[float(z.real), float(z.imag)] for z in data.reshape(-1)]
    with open(path, "w") as fh:
        json.dump({"n": n, "tag": tag, "entries": entries}, fh)
        fh.write("\n")


def read_grid_json(path: str):
    """(n, tag, data) of a grid file, parsed without the program's code."""
    with open(path) as fh:
        obj = json.load(fh)
    n = obj["n"]
    data = np.array(obj["entries"], dtype=np.float64)
    data = (data[:, 0] + 1j * data[:, 1]).reshape(2 * n + 1, 2 * n + 1)
    return n, obj["tag"], data


# ---------------------------------------------------------------- checks

def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _read_csv(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(v) for v in row.split(",")] for row in lines[1:]]


def fourier_real_gap(z: np.ndarray) -> float:
    n = (z.shape[0] - 1) // 2
    return max(float(np.max(np.abs(z - np.conj(z[::-1, ::-1])))), abs(float(z[n, n].imag)))


class Workload:
    name = ""
    why = ""
    params: dict = {}  # what one operation runs, recorded in qbench/baseline.json
    # layers that should hold most of the traced self time of one operation
    named_layers: tuple = ()

    def make_inputs(self, rng: np.random.Generator, work: str):
        raise NotImplementedError

    def setup(self, ctx: "Context"):
        """Per-child preparation that users pay once per process (not timed as an op)."""

    def op(self, ctx: "Context"):
        """One operation; raises when it fails."""
        raise NotImplementedError

    def check(self, ctx: "Context"):
        """None when the last operation's output is correct, else the reason."""
        raise NotImplementedError

    def references(self, ctx: "Context"):
        """Reference values the checks compare against, built after set-up."""


class Context:
    """Paths one child process works with, plus the workload's own state."""

    def __init__(self, root: str, inputs: str, out: str):
        self.root = root
        self.inputs = inputs
        self.out = out
        self.state: dict = {}

    def infile(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def outfile(self, name: str) -> str:
        return os.path.join(self.out, name)


def _cli(argv):
    from qtorus import cli

    code = cli.run(argv)
    if code != 0:
        raise RuntimeError("qtorus %s exited with %d" % (argv[0], code))


class Sweep(Workload):
    name = "sweep"
    why = ("the direct averaging route as users run it: `qtorus redundancy` over "
           "nested ordinate counts; phase_average and broadband_average_2d dominate")
    params = {"command": "redundancy", "n": SWEEP_N, "sigma": SIGMA, "counts": list(SWEEP_COUNTS)}
    named_layers = ("redundancy.phase_average", "summation.KahanAccumulator.add")

    def make_inputs(self, rng, work):
        write_grid_json(os.path.join(work, "field.json"), SWEEP_N, "fourier-real",
                        smooth_field(rng, SWEEP_N))

    def op(self, ctx):
        _cli(["redundancy", "--field", ctx.infile("field.json"), "--sigma", repr(SIGMA),
              "--zeros", os.path.join(ctx.root, ZEROS),
              "--counts", ",".join(str(c) for c in SWEEP_COUNTS),
              "--out", ctx.outfile("sweep.csv")])

    def check(self, ctx):
        header, rows = _read_csv(ctx.outfile("sweep.csv"))
        if header != ["zero_count", "T", "l2_error_field", "hs_error_operator"]:
            return "unexpected CSV header %r" % header
        if [int(r[0]) for r in rows] != list(SWEEP_COUNTS):
            return "expected one row per count %r" % (SWEEP_COUNTS,)
        if not all(math.isfinite(v) for r in rows for v in r):
            return "non-finite value in sweep CSV"
        for r in rows:
            if not _rel_close(r[2], r[3], 1e-12):
                return "l2_error_field %r != hs_error_operator %r" % (r[2], r[3])
        err = {int(r[0]): r[2] for r in rows}
        if not err[10000] < err[100]:
            return "error at 10000 (%r) not below error at 100 (%r)" % (err[10000], err[100])
        return None


class RouteCheck(Workload):
    name = "route-check"
    why = ("the oracle route of acceptance 9: per-zero and direct averages of one "
           "field over the first 1000 ordinates; d_transform_2d per ordinate dominates")
    params = {"n": ROUTE_N, "sigma": SIGMA, "count": ROUTE_COUNT,
              "routes": ["broadband_average_2d_per_zero", "broadband_average_2d"]}
    named_layers = ("dirichlet.d_transform_2d", "dirichlet.dirichlet_inverse",
                    "summation.KahanAccumulator.add")

    def make_inputs(self, rng, work):
        write_grid_json(os.path.join(work, "field.json"), ROUTE_N, "fourier-real",
                        smooth_field(rng, ROUTE_N))

    def setup(self, ctx):
        from qtorus import redundancy

        table = redundancy.load_zero_table(os.path.join(ctx.root, ZEROS))
        ctx.state["table"] = table
        ctx.state["t"] = table.t_covering(ROUTE_COUNT)

    def op(self, ctx):
        from qtorus import gridio, redundancy

        table, t = ctx.state["table"], ctx.state["t"]
        field = gridio.read_grid(ctx.infile("field.json"))
        ctx.state["field"] = field
        ctx.state["per_zero"] = redundancy.broadband_average_2d_per_zero(field, SIGMA, table, t)
        ctx.state["direct"] = redundancy.broadband_average_2d(field, SIGMA, table, t)

    def check(self, ctx):
        field, direct = ctx.state["field"], ctx.state["direct"]
        gap = float(np.max(np.abs(ctx.state["per_zero"].data - direct.data)))
        if not gap <= 1e-10:
            return "route gap %.3e exceeds 1e-10" % gap
        if direct.entry(0, 0) != field.entry(0, 0):
            return "entry (0,0) not exact: %r vs %r" % (direct.entry(0, 0), field.entry(0, 0))
        return None


class Evolve(Workload):
    name = "evolve"
    why = ("`qtorus evolve` with one general Lindblad operator and diagonal lambda; "
           "the RK4 stepper dominates and it is the only workload whose memory grows "
           "with run length")
    params = {"command": "evolve", "n": EVOLVE_N, "a": 6.283, "lambda": "linear:1.0",
              "lindblad": 1, "t": EVOLVE_T, "dt": EVOLVE_DT, "alpha": 1.0}
    named_layers = ("dynamics.evolve_rk4", "dynamics.phi_matrix", "sobolev.norm")
    steps = round(EVOLVE_T / EVOLVE_DT)

    def make_inputs(self, rng, work):
        write_grid_json(os.path.join(work, "field.json"), EVOLVE_N, "fourier-real",
                        smooth_field(rng, EVOLVE_N))
        write_grid_json(os.path.join(work, "lindblad.json"), EVOLVE_N, "general",
                        lindblad_operator(rng, EVOLVE_N))

    def op(self, ctx):
        _cli(["evolve", "--field", ctx.infile("field.json"), "--a", "6.283",
              "--lambda", "linear:1.0", "--lindblad", ctx.infile("lindblad.json"),
              "--t", repr(EVOLVE_T), "--dt", repr(EVOLVE_DT), "--alpha", "1",
              "--out", ctx.outfile("evolved.json"), "--trace", ctx.outfile("trace.csv")])

    def check(self, ctx):
        header, rows = _read_csv(ctx.outfile("trace.csv"))
        if header != ["t", "alpha_norm", "bound_est_T2", "bound_estimate_full"]:
            return "unexpected trace header %r" % header
        if len(rows) != self.steps + 1:
            return "expected %d trace rows, got %d" % (self.steps + 1, len(rows))
        for t, nrm, _, bound in rows:
            if not math.isfinite(nrm):
                return "non-finite norm at t=%r" % t
            if not nrm <= bound * (1.0 + 1e-9):
                return "norm %r exceeds bound %r at t=%r" % (nrm, bound, t)
        n, tag, z = read_grid_json(ctx.outfile("evolved.json"))
        if tag != "fourier-real" or n != EVOLVE_N:
            return "evolved grid has n=%r tag=%r" % (n, tag)
        if not np.all(np.isfinite(z)):
            return "evolved grid is not finite"
        gap = fourier_real_gap(z)
        if not gap <= 1e-12 * float(np.max(np.abs(z))):
            return "evolved grid is not fourier-real (deviation %.3e)" % gap
        return None


class GridIO(Workload):
    name = "grid-io"
    why = ("five chained CLI commands at n=%d (qtransform, qinverse, commutator, "
           "norms, smap); grid JSON reads and writes dominate" % GRID_N)
    params = {"n": GRID_N, "commands": ["qtransform", "qinverse", "commutator", "norms", "smap"],
              "alphas": list(NORM_ALPHAS)}
    named_layers = ("gridio.read_grid", "gridio.write_grid")

    def make_inputs(self, rng, work):
        for name in ("f.json", "g.json"):
            write_grid_json(os.path.join(work, name), GRID_N, "fourier-real",
                            smooth_field(rng, GRID_N))

    def op(self, ctx):
        f, g = ctx.infile("f.json"), ctx.infile("g.json")
        _cli(["qtransform", "--field", f, "--imag", g, "--out", ctx.outfile("c.json")])
        _cli(["qinverse", "--in", ctx.outfile("c.json"), "--out-real", ctx.outfile("f2.json"),
              "--out-imag", ctx.outfile("g2.json")])
        _cli(["commutator", "--f", f, "--g", g, "--out", ctx.outfile("h.json")])
        _cli(["norms", "--in", f, "--alphas", ",".join(repr(a) for a in NORM_ALPHAS),
              "--out", ctx.outfile("norms.csv")])
        _cli(["smap", "--in", f, "--out", ctx.outfile("w.json")])

    def references(self, ctx):
        from qtorus import CoeffGrid, SobolevWeight, field_commutator, norm, s_map

        f = read_grid_json(ctx.infile("f.json"))[2]
        g = read_grid_json(ctx.infile("g.json"))[2]
        fg, gg = CoeffGrid(GRID_N, f, "fourier-real"), CoeffGrid(GRID_N, g, "fourier-real")
        ctx.state.update(
            f=f, g=g,
            norms=[norm(fg, SobolevWeight(a)) for a in NORM_ALPHAS],
            commutator=field_commutator(fg, gg).data,
            smap=s_map(fg).data,
        )

    def check(self, ctx):
        st = ctx.state
        for out, ref in (("f2.json", st["f"]), ("g2.json", st["g"]),
                         ("h.json", st["commutator"]), ("w.json", st["smap"])):
            z = read_grid_json(ctx.outfile(out))[2]
            gap = float(np.max(np.abs(z - ref)))
            if not gap <= 1e-12 * max(1.0, float(np.max(np.abs(ref)))):
                return "%s differs from its reference by %.3e" % (out, gap)
        header, rows = _read_csv(ctx.outfile("norms.csv"))
        if header != ["alpha", "norm"] or [r[0] for r in rows] != list(NORM_ALPHAS):
            return "unexpected norms CSV layout"
        for (alpha, value), ref in zip(rows, st["norms"]):
            if not _rel_close(value, ref, 1e-12):
                return "norm at alpha=%r is %r, expected %r" % (alpha, value, ref)
        return None


WORKLOADS = {w.name: w for w in (Sweep(), RouteCheck(), Evolve(), GridIO())}


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name].make_inputs(np.random.default_rng(seed), directory)
