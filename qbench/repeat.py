"""Repeat qbench over several seeds and report each metric's spread.

    python3 qbench/repeat.py [--workloads a,b] [--seeds 10] [--traced] [--out FILE]

For every workload it runs `qbench/run.py` once per seed (seeds 1, 2, ...)
with the `run_seconds` of BENCHMARK.json, and prints for each end-to-end
metric the median, the quartiles from `statistics.quantiles(values, n=4)`,
and their distance as a share of the median beside a third of the metric's
bound.  `--traced` adds one traced run per workload on seed 1.  `--out`
writes all of it as JSON (the committed `qbench/baseline.json` was made
this way).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("run.py failed (%d): %s" % (proc.returncode, proc.stderr[-2000:]))
    record = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("run_record "))
    return record, json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            record, result = run_once(workload, seed, seconds, 0)
            report.setdefault("run_record", record)
            runs.append(result)
            ok = ok and result["correct"]
            print("%s seed %d: correct=%s %s" % (workload, seed, result["correct"], " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        entry = {"why": WORKLOADS[workload].why, "params": WORKLOADS[workload].params,
                 "runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "bound": bound}
            steady = spread < bound / 3
            ok = ok and (steady or name == "setup_s")
            print("  %-12s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  (bound/3 %.4f) %s"
                  % (name, med, q1, q3, spread, bound / 3, "ok" if steady else "WIDE"),
                  flush=True)
        if args.traced:
            _, traced = run_once(workload, 1, seconds, 1)
            entry["traced"] = traced
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
