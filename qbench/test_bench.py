"""Tests of the benchmark itself.

    python3 -m pytest -q qbench/test_bench.py

The smoke runs start real child processes and take about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "qbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 26))
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 60.0
    assert run.tail([3, 1, 2]) == (3, 100.0)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_prints_every_metric_without_errors(name):
    proc = _bench(name, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric, unit in run.END_TO_END.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
        assert any(l.startswith("[%s] %s = " % (name, metric)) for l in lines)
    for printed in ("op_p50_s", "ref_loop_s", "op_tail_s"):
        assert any(l.startswith("[%s] %s = " % (name, printed)) for l in lines)
    assert "[%s] error_rate = 0 ratio" % name in proc.stdout


def test_traced_smoke_prints_every_layer_metric():
    proc = _bench("sweep", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["summation.KahanAccumulator.add.calls"]["value"] == 11110
    assert "tracing overhead" in proc.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "qbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _context(name, tmp_path):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    wl = workloads.WORKLOADS[name]
    wl.make_inputs(np.random.default_rng(3), str(inputs))
    ctx = workloads.Context(ROOT, str(inputs), str(out))
    wl.setup(ctx)
    wl.op(ctx)
    wl.references(ctx)
    assert wl.check(ctx) is None
    return wl, ctx


def _rewrite_csv_cell(path, row, col, value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _corrupt_sweep(ctx):
    _rewrite_csv_cell(ctx.outfile("sweep.csv"), 2, 3, "0.5")  # hs error != l2 error


def _corrupt_route_check(ctx):
    per_zero = ctx.state["per_zero"]
    data = per_zero.data.copy()
    data[0, 0] += 1e-9
    ctx.state["per_zero"] = per_zero.with_data(data)


def _corrupt_evolve(ctx):
    _rewrite_csv_cell(ctx.outfile("trace.csv"), 5, 1, "nan")


def _corrupt_grid_io(ctx):
    path = ctx.outfile("f2.json")
    with open(path) as fh:
        obj = json.load(fh)
    obj["entries"][7][0] += 1e-6
    with open(path, "w") as fh:
        json.dump(obj, fh)


@pytest.mark.parametrize("name,corrupt", [
    ("sweep", _corrupt_sweep),
    ("route-check", _corrupt_route_check),
    ("evolve", _corrupt_evolve),
    ("grid-io", _corrupt_grid_io),
])
def test_corrupted_output_counts_as_failure(name, corrupt, tmp_path):
    wl, ctx = _context(name, tmp_path)
    corrupt(ctx)
    assert wl.check(ctx) is not None
