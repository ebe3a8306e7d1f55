"""Span tracing of the program's layers from outside the program.

Wrappers are installed on the name each caller actually looks up: a
function is replaced in every loaded `qtorus` module that binds it (the CLI
does `from .gridio import read_grid`, so patching `qtorus.gridio` alone
would miss its calls), and a method is replaced on its class.  Spans are
kept in memory as (name, start, end, parent, op) tuples and written once,
when the child process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


def _read_bytes(counts, args, result):
    counts["gridio.read_grid.bytes"] += os.path.getsize(args[0])


def _write_bytes(counts, args, result):
    counts["gridio.write_grid.bytes"] += os.path.getsize(args[0])


def _phase_evals(counts, args, result):
    taus, xs = len(args[0]), int(getattr(args[1], "size", len(args[1])))
    counts["redundancy.phase_evals"] += taus * xs
    # per-op state (leading "_"): an op needs at most (largest count) x (arguments)
    counts["_max_taus"] = max(counts["_max_taus"], taus)
    counts["_max_args"] = max(counts["_max_args"], xs)


def _trajectory(counts, args, result):
    counts["dynamics.trajectory_points"] += len(result)
    counts["dynamics.trajectory_bytes"] += sum(pt.grid.data.nbytes for pt in result)


EXTRA_COUNTS = ("gridio.read_grid.bytes", "gridio.write_grid.bytes", "redundancy.phase_evals",
                "dynamics.trajectory_points", "dynamics.trajectory_bytes")

# (layer name, module, attribute, records a span, extra counter hook)
TARGETS = (
    ("cli", "qtorus.cli", "run", True, None),
    ("gridio.read_grid", "qtorus.gridio", "read_grid", True, _read_bytes),
    ("gridio.write_grid", "qtorus.gridio", "write_grid", True, _write_bytes),
    ("gridio.manifest", "qtorus.gridio", "RunManifest.write_for", True, None),
    ("redundancy.load_zero_table", "qtorus.redundancy", "load_zero_table", True, None),
    ("redundancy.phase_average", "qtorus.redundancy", "phase_average", True, _phase_evals),
    ("redundancy.broadband_average_2d", "qtorus.redundancy", "broadband_average_2d", True, None),
    ("redundancy.per_zero", "qtorus.redundancy", "broadband_average_2d_per_zero", True, None),
    ("dirichlet.d_transform_2d", "qtorus.dirichlet", "d_transform_2d", True, None),
    ("dirichlet.dirichlet_inverse", "qtorus.dirichlet", "dirichlet_inverse", True, None),
    ("summation.KahanAccumulator.add", "qtorus.summation", "KahanAccumulator.add", True, None),
    ("dynamics.evolve_rk4", "qtorus.dynamics", "evolve_rk4", True, _trajectory),
    ("dynamics.phi_matrix", "qtorus.dynamics", "LindbladSet.phi_matrix", True, None),
    ("sobolev.norm", "qtorus.sobolev", "norm", True, None),
    ("sobolev.weights", "qtorus.sobolev", "SobolevWeight.weights", False, None),
    ("grids.coeffgrid", "qtorus.grids", "CoeffGrid.__post_init__", False, None),
    ("grids.require_fourier_real", "qtorus.grids", "require_fourier_real", True, None),
    ("grids.require_hermitian", "qtorus.grids", "require_hermitian", True, None),
    ("spectral.q_transform", "qtorus.spectral", "q_transform", True, None),
    ("spectral.q_inverse", "qtorus.spectral", "q_inverse", True, None),
    ("spectral.s_map", "qtorus.spectral", "s_map", True, None),
    ("commutators.field_commutator", "qtorus.commutators", "field_commutator", True, None),
)

# established metric names that do not follow the <layer>.s / <layer>.calls pattern
RENAMED = {"cli.s": "cli.self_s", "grids.coeffgrid.calls": "grids.coeffgrid_constructions"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.n_ops = 0
        # per-op counters: op id -> name -> value
        self.counts = defaultdict(lambda: defaultdict(int))
        self.errors = defaultdict(int)
        self._undo: list = []

    # ------------------------------------------------------------ patching

    def install(self):
        for name, module, attr, span, extra in TARGETS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth], span, extra))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, span, extra)
            for mname, m in list(sys.modules.items()):
                if mname != "qtorus" and not mname.startswith("qtorus."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _patch(self, owner, key, wrapper):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, span, extra):
        spans, stack, errors = self.spans, self.stack, self.errors

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.op][name + ".calls"] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = self.counts[self.op]
            counts[name + ".calls"] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if extra is not None:
                extra(counts, args, result)
            return result

        return traced if span else counted

    # ------------------------------------------------------------ ops

    def begin_op(self, op_id):
        self.op = op_id
        self.n_ops += 1
        self.stack.append(len(self.spans))
        self.spans.append((None, perf_counter()))

    def end_op(self):
        idx = self.stack.pop()
        _, start = self.spans[idx]
        self.spans[idx] = ("op", start, perf_counter(), -1, self.op)
        self.op = None

    # ------------------------------------------------------------ results

    def totals(self) -> dict:
        """Sums over all traced ops: <layer>.s self time, calls, counters, errors."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float, dict.fromkeys(EXTRA_COUNTS, 0))
        for name, _, _, span, _ in TARGETS:
            out[name + ".calls"] = 0
            out[name + ".errors"] = self.errors.get(name, 0)
            if span:
                out[name + ".s"] = 0.0
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name + ".s"] += (end - start) - inner
        useful = 0
        for counts in self.counts.values():
            for key, value in counts.items():
                if not key.startswith("_"):
                    out[key] += value
            useful += counts.get("_max_taus", 0) * counts.get("_max_args", 0)
        out["redundancy.phase_evals_useful"] = useful
        out["ops"] = self.n_ops
        return {RENAMED.get(k, k): v for k, v in out.items()}

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def per_op(totals: dict, named_layers) -> dict:
    """Per-operation layer metrics from summed tracer totals of any number of children."""
    ops = totals.get("ops", 0)
    if ops == 0:
        return {}
    out = {k: v / ops for k, v in totals.items()
           if k not in ("ops", "op.s", "redundancy.phase_evals_useful")}
    evals = totals.get("redundancy.phase_evals", 0)
    out["redundancy.phase_evals_useful_ratio"] = (
        totals["redundancy.phase_evals_useful"] / evals if evals else 0.0)
    traced = sum(v for k, v in totals.items() if k.endswith(".s") or k == "cli.self_s")
    named = sum(totals.get(RENAMED.get(n + ".s", n + ".s"), 0.0) for n in named_layers)
    out["trace.self_s"] = traced / ops
    out["trace.named_layer_share"] = named / traced if traced else 0.0
    return out
