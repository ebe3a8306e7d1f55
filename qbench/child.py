"""One child process of a qbench run: set up, warm up, then a timed closed loop.

    python3 qbench/child.py --workload NAME --inputs DIR --out DIR --budget S
                            --trace 0|1 --result FILE [--spans FILE]

Set-up ends when the untimed warm-up operation has returned; the child
records that moment on the system-wide monotonic clock so the parent can
measure set-up from the moment it started the process.  The loop then runs
operations one after another for `--budget` seconds (at least one, two
when tracing) and checks the output of every operation, the warm-up
included.  With
`--trace 1` every other operation runs with span wrappers installed, so
traced and untraced operations interleave and their difference is the
tracing overhead.

Right before each timed operation the child times `reference_loop`, a
fixed piece of work that does not touch the program.  A shared
host runs everything in this process faster or slower by up to half for
tens of seconds at a time; the reference slows down with the operation,
so the ratio of the two stays put where the operation's wall time does
not.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import qtorus  # noqa: E402,F401  (part of set-up: the import users pay)

from workloads import WORKLOADS, Context  # noqa: E402


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def reference_loop() -> float:
    """Fixed work in the three kinds the workloads do, about 20 ms each.

    Interpreter work (float arithmetic, small lists, dict stores), numpy
    element-wise work on a 33 x 33 complex grid, and BLAS products of
    65 x 65 matrices.  The kinds slow down by different amounts when the
    host is busy, so one of them alone follows some workloads and not others.
    """
    table = {}
    acc = 0.0
    for i in range(70000):
        acc += (i * 0.5) ** 0.5
        table[i & 1023] = [acc, i]
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    z = grid.copy()
    for i in range(1400):
        z = 0.5 * (z + grid[::-1, ::-1])
        acc += float(np.abs(z).sum())
    mat = rng.standard_normal((65, 65))
    vec = mat.copy()
    for _ in range(900):
        vec = (mat @ vec) * 0.01
    return acc + float(vec[0, 0])


def timed_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    ctx = Context(ROOT, args.inputs, args.out)
    failures = []
    attempted = 0

    def run_op(op_id, tracer=None):
        """Wall time of one operation, or None when it raised."""
        nonlocal attempted
        attempted += 1
        for stale in os.listdir(ctx.out):  # an op that writes nothing must not pass
            os.remove(os.path.join(ctx.out, stale))
        if tracer is not None:
            tracer.install()
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            wl.op(ctx)
        except Exception:
            failures.append("op %d: %s" % (op_id, traceback.format_exc(limit=3)))
            return None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
                tracer.uninstall()
        return elapsed

    def passes(op_id):
        reason = wl.check(ctx)
        if reason is not None:
            failures.append("op %d: %s" % (op_id, reason))
        return reason is None

    wl.setup(ctx)
    warm = run_op(0)
    ready_at = time.monotonic()
    wl.references(ctx)
    if warm is not None:
        passes(0)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    samples, traced, refs = [], [], []
    loop_start = time.perf_counter()
    op_id = 0
    min_ops = 2 if tracer is not None else 1  # a traced run needs both kinds of op
    while op_id < min_ops or time.perf_counter() - loop_start < args.budget:
        op_id += 1
        use_tracer = tracer if (tracer is not None and op_id % 2 == 0) else None
        ref = timed_reference()
        elapsed = run_op(op_id, use_tracer)
        if elapsed is not None and passes(op_id):
            if use_tracer is not None:
                traced.append(elapsed)
            else:
                samples.append(elapsed)
                refs.append(ref)

    result = {
        "ready_at": ready_at,
        "samples": samples,
        "references": refs,
        "traced_samples": traced,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "named_layers": list(wl.named_layers),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
