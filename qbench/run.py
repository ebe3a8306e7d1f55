"""qbench: the qtorus benchmark.

    python3 qbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/qtorus` and
`data/zeta_zeros_10k.txt`; without them it exits with code 2).  For each
workload the parent writes seeded input grids, then starts SETUP_REPEATS
fresh child processes one after another (`qbench/child.py`).  Each child
imports the program, sets up, runs one untimed warm-up operation, and then
runs a closed loop with one client for S / SETUP_REPEATS seconds, checking
every output.  Samples of all children are pooled.

End-to-end metrics (`--trace 0`), measured without tracing:
  op_p50_rel   median over operations of the operation's wall time divided
               by the wall time of the child's fixed reference loop, timed
               right before it (see child.py): the operation's cost in
               reference loops, which the host's changing speed leaves alone
  op_p50_s     median wall time of one operation (printed, not listed: on a
               shared host it moves by a quarter between runs of one code)
  ref_loop_s   median wall time of the reference loop (printed, not listed)
  op_tail_s    highest nearest-rank percentile with at least ten samples
               beyond it (the maximum when there are fewer than 11 samples)
  peak_rss_mb  ru_maxrss of a child process, median over the children
  setup_s      child start until its warm-up operation returned, median
  error_rate   failed / attempted operations (also the `failed` and
               `attempted` fields of the result line)
Per-layer metrics (`--trace 1`) come from span wrappers (`qbench/spans.py`)
installed on every other operation; the interleaved untraced operations
give the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, whose metrics are
END_TO_END (or PER_LAYER when tracing), the ones BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".qbench_work")
sys.path.insert(0, HERE)

from spans import per_op  # noqa: E402

# This process imports neither numpy nor the workloads (see workloads.py), so
# it repeats their names and the files they need.
WORKLOADS = ("sweep", "route-check", "evolve", "grid-io")
REQUIRED = (os.path.join("src", "qtorus", "__init__.py"),
            os.path.join("data", "zeta_zeros_10k.txt"))

SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0

# End-to-end metrics listed in BENCHMARK.json.  op_p50_s, ref_loop_s, op_tail_s
# and error_rate are printed too but not listed: error_rate is 0 when the
# program is correct, and the three times follow the host's speed, which
# drifts by up to half over tens of seconds, so ten runs of one code spread
# by more than any useful bound.
END_TO_END = {"op_p50_rel": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
PRINTED = {"op_p50_rel": "ref", "op_p50_s": "s", "ref_loop_s": "s", "op_tail_s": "s",
           "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics listed in BENCHMARK.json: counts, which repeat exactly, and
# times that every workload exercises.  Self times of layers that only some
# workloads reach are printed by the traced run but not listed, since they
# read exactly 0 on the other workloads.
PER_LAYER = {
    "trace.overhead_s": "s",
    "trace.named_layer_share": "ratio",
    "gridio.read_grid.s": "s",
    "gridio.read_grid.calls": "count",
    "gridio.read_grid.bytes": "B",
    "gridio.write_grid.calls": "count",
    "gridio.write_grid.bytes": "B",
    "gridio.manifest.calls": "count",
    "redundancy.load_zero_table.calls": "count",
    "redundancy.phase_average.calls": "count",
    "redundancy.phase_evals": "count",
    "redundancy.phase_evals_useful_ratio": "ratio",
    "redundancy.broadband_average_2d.calls": "count",
    "redundancy.per_zero.calls": "count",
    "dirichlet.d_transform_2d.calls": "count",
    "dirichlet.dirichlet_inverse.calls": "count",
    "summation.KahanAccumulator.add.calls": "count",
    "dynamics.evolve_rk4.calls": "count",
    "dynamics.phi_matrix.calls": "count",
    "dynamics.trajectory_points": "count",
    "dynamics.trajectory_bytes": "B",
    "sobolev.norm.calls": "count",
    "sobolev.weights.calls": "count",
    "grids.coeffgrid_constructions": "count",
    "grids.require_fourier_real.calls": "count",
    "grids.require_hermitian.calls": "count",
    "spectral.q_transform.calls": "count",
    "spectral.q_inverse.calls": "count",
    "spectral.s_map.calls": "count",
    "commutators.field_commutator.calls": "count",
    "cli.calls": "count",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def tail(samples):
    """(value, percentile): the sample with exactly ten samples beyond it."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    rank = len(s) - 10
    return s[rank - 1], 100.0 * rank / len(s)


def run_record(seed: int, seconds: float) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "qtl_threads_set": "QTL_THREADS" in os.environ,
        "setup_repeats": SETUP_REPEATS,
    }


def run_children(name: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Start the children of one workload in turn; return their results and failures."""
    work = os.path.join(WORK, "run-%d-%s" % (os.getpid(), name))
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    results, crashes = [], []
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), name, str(seed),
                        inputs], cwd=ROOT, check=True, timeout=120)
        for i in range(SETUP_REPEATS):
            out = os.path.join(work, "out%d" % i)
            os.makedirs(out)
            result_path = os.path.join(work, "child%d.json" % i)
            argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", name,
                    "--inputs", inputs, "--out", out, "--budget", repr(seconds / SETUP_REPEATS),
                    "--trace", str(int(trace)), "--result", result_path]
            if trace:
                argv += ["--spans", os.path.join(WORK, "spans-%s-%d.jsonl" % (name, i))]
            with open(os.path.join(work, "child%d.err" % i), "w+") as err:
                started = time.monotonic()
                proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
                try:
                    code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    code = "timeout"
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
                err.seek(0)
                stderr = err.read()
            if code != 0 or not os.path.exists(result_path):
                crashes.append("child %d exited with %s: %s" % (i, code, stderr[-2000:]))
                continue
            with open(result_path) as fh:
                res = json.load(fh)
            res["setup_s"] = res["ready_at"] - started
            results.append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return results, crashes


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    results, crashes = run_children(name, seed, seconds, trace, deadline)
    attempted = sum(r["attempted"] for r in results) + len(crashes)
    failed = sum(r["failed"] for r in results) + len(crashes)
    failures = crashes + [f for r in results for f in r["failures"]]
    samples = [s for r in results for s in r["samples"]]
    refs = [s for r in results for s in r["references"]]
    summary = {"attempted": attempted, "failed": failed, "failures": failures[:5],
               "error_rate": failed / attempted if attempted else 1.0,
               "samples": len(samples), "metrics": {}, "layers": {}}
    if samples:
        value, pct = tail(samples)
        summary["tail_percentile"] = pct
        summary["metrics"] = {
            "op_p50_rel": statistics.median(e / ref for e, ref in zip(samples, refs)),
            "op_p50_s": statistics.median(samples),
            "ref_loop_s": statistics.median(refs),
            "op_tail_s": value,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in results) / 1024.0,
            "setup_s": statistics.median(r["setup_s"] for r in results),
        }
    traced = [s for r in results for s in r.get("traced_samples", [])]
    if trace and traced and samples:
        totals = {}
        for r in results:
            for k, v in r["layers"].items():
                totals[k] = totals.get(k, 0) + v
        layers = per_op(totals, results[0]["named_layers"])
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(samples)
        layers["trace.traced_op_p50_s"] = statistics.median(traced)
        summary["layers"] = layers
        summary["traced_samples"] = len(traced)
        summary["named_layers"] = results[0]["named_layers"]
    if results:
        summary["numpy"] = results[0]["numpy"]
        summary["blas_threads"] = results[0]["blas_threads"]
    return summary


def report(name: str, summary: dict, trace: bool):
    tag = "[%s]" % name
    m = summary["metrics"]
    for key, unit in PRINTED.items():
        if key not in m:
            continue
        note = ""
        if key in ("op_p50_rel", "op_p50_s", "ref_loop_s"):
            note = " (n=%d)" % summary["samples"]
        elif key == "op_tail_s":
            note = " (p%.1f, n=%d)" % (summary["tail_percentile"], summary["samples"])
        elif key == "setup_s":
            note = " (median of %d children)" % SETUP_REPEATS
        print("%s %s = %.6g %s%s" % (tag, key, m[key], unit, note))
    print("%s error_rate = %.6g ratio (%d failed / %d attempted)"
          % (tag, summary["error_rate"], summary["failed"], summary["attempted"]))
    for reason in summary["failures"]:
        print("%s failure: %s" % (tag, reason.strip().replace("\n", " | ")))
    if trace and summary["layers"]:
        layers = summary["layers"]
        for key in sorted(layers):
            print("%s %s = %.6g %s per op" % (tag, key, layers[key], layer_unit(key)))
        print("%s named layers %s hold %.1f%% of traced self time per op "
              "(n_traced=%d); tracing overhead %.6g s per op"
              % (tag, " + ".join(summary["named_layers"]),
                 100.0 * layers["trace.named_layer_share"], summary["traced_samples"],
                 layers["trace.overhead_s"]))


def result_metrics(summary: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": summary["layers"][k], "unit": u}
                for k, u in PER_LAYER.items() if k in summary["layers"]}
    return {k: {"value": summary["metrics"][k], "unit": u}
            for k, u in END_TO_END.items() if k in summary["metrics"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qtorus benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    missing = [rel for rel in REQUIRED if not os.path.exists(os.path.join(ROOT, rel))]
    if missing:
        print("qbench: not a qtorus source checkout, missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    summaries = {}
    for name in names:
        summaries[name] = run_workload(name, args.seed, args.seconds, trace, deadline)
        report(name, summaries[name], trace)
    record = run_record(args.seed, args.seconds)
    for summary in summaries.values():
        for key in ("numpy", "blas_threads"):
            record.setdefault(key, summary.get(key))
    print("run_record " + json.dumps(record, sort_keys=True))

    metrics = {}
    for name, summary in summaries.items():
        for key, value in result_metrics(summary, trace).items():
            metrics[key if len(names) == 1 else "%s.%s" % (name, key)] = value
    expected = len(names) * len(PER_LAYER if trace else END_TO_END)
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    correct = failed == 0 and attempted > 0 and len(metrics) == expected
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
