"""Span tracer that wraps layerburn's public functions from outside the package.

The modules import each other's functions by name (`from .evolution import
build_propagator`), so wrapping a function means rebinding every module-level
name in the package that refers to it; `Propagator.apply_values` is patched on
the class.  A span is (name, start, end, parent index); spans are kept in a
list and summarised after the run.  Self time is a span's duration minus that
of its direct children, so the self times of all spans add up to the time of
the root spans.  Counts that do not depend on timing (windows, sweeps, bytes,
computed flops) are taken from the arguments and return values of the calls.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

from layerburn import evolution

MODULES = ("grid", "model", "evolution", "hypothesis", "mild_solver", "oracle",
           "dependence", "io_cli")

# Computed cost of one layer of Propagator.apply_values on m nodes: the
# explicit tridiagonal product (5m flops) and scipy's banded solve, which
# factors the tridiagonal (3m) and runs the two triangular sweeps with one
# fill-in band (6m).  Bytes: the three explicit bands, the three implicit
# bands, input, intermediate right-hand side written and read, output; LAPACK's
# internal copies are not counted.
APPLY_FLOPS_PER_NODE = 14
APPLY_BYTES_PER_NODE = 8 * (3 + 3 + 1 + 2 + 1)

# Spans under solve_global that are not Picard-sweep work (see sweep_s).
_NOT_SWEEP = frozenset({"hypothesis.audit_problem", "evolution.build_propagator",
                        "hypothesis.lipschitz_kappa", "hypothesis.bound_mu"})


class Tracer:
    """Install with `install()`, run the workload, then `uninstall()`."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _hooks(self):
        counts = self.counts

        def solve_global(args, res):
            counts["windows"] += len(res.windows)
            counts["picard_sweeps"] += res.total_iterations
            counts["halvings"] += sum(w.halvings for w in res.windows)

        def solve_coupled(args, res):
            counts["outer_passes"] += res.outer_iterations

        def apply_values(args, res):
            n, m = res.shape
            counts["apply_flops"] += APPLY_FLOPS_PER_NODE * n * m

        def write_trajectory(args, paths):
            counts["write_bytes"] += sum(os.path.getsize(p) for p in paths)

        return {"mild_solver.solve_global": solve_global,
                "mild_solver.solve_coupled": solve_coupled,
                "evolution.apply_values": apply_values,
                "io_cli.write_trajectory": write_trajectory}

    def install(self):
        hooks = self._hooks()
        wrapped = {}
        for short in MODULES:
            mod = sys.modules[f"layerburn.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, hooks.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "layerburn" and not mod_name.startswith("layerburn."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        orig = evolution.Propagator.apply_values
        self._patches.append((evolution.Propagator, "apply_values", orig))
        evolution.Propagator.apply_values = self._wrap(
            "evolution.apply_values", orig, hooks["evolution.apply_values"])

    def uninstall(self):
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-name calls, inclusive time, self time; and the total self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: dict = defaultdict(float)
        own: dict = defaultdict(float)
        not_sweep = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += end - start
            if name in _NOT_SWEEP:
                p = parent
                while p >= 0 and spans[p][0] not in _NOT_SWEEP \
                        and spans[p][0] != "mild_solver.solve_global":
                    p = spans[p][3]
                if p >= 0 and spans[p][0] == "mild_solver.solve_global":
                    not_sweep += end - start
        return {"calls": calls, "incl": incl, "self": own,
                "self_sum": sum(own.values()), "not_sweep": not_sweep}


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """The per-layer metrics of one traced iteration, as {name: (value, unit)}."""
    calls, incl, own = summary["calls"], summary["incl"], summary["self"]
    apply_calls = calls["evolution.apply_values"]
    apply_s = incl["evolution.apply_values"]
    write_s = incl["io_cli.write_trajectory"]
    sweeps = counts["picard_sweeps"]
    sweep_time = incl["mild_solver.solve_global"] - summary["not_sweep"]
    return {
        "io_cli.write_trajectory.s": (write_s, "s"),
        "io_cli.write_trajectory.bytes_per_s":
            (counts["write_bytes"] / write_s if write_s else 0.0, "B/s"),
        "io_cli.read_trajectory.s": (incl["io_cli.read_trajectory"], "s"),
        "io_cli.cli.self_s": (own["io_cli.cli"], "s"),
        "evolution.apply_values.calls": (apply_calls, "count"),
        "evolution.apply_values.s": (apply_s, "s"),
        "evolution.apply_values.us_per_call":
            (1e6 * apply_s / apply_calls if apply_calls else 0.0, "us"),
        "evolution.apply_values.flops_computed": (counts["apply_flops"], "flop"),
        "evolution.build_propagator.calls": (calls["evolution.build_propagator"], "count"),
        "evolution.build_propagator.s": (incl["evolution.build_propagator"], "s"),
        "model.source_f.calls": (calls["model.source_f"], "count"),
        "model.source_f.s": (incl["model.source_f"], "s"),
        "model.fuel_step.s": (incl["model.fuel_step"], "s"),
        "hypothesis.audit_problem.calls": (calls["hypothesis.audit_problem"], "count"),
        "hypothesis.audit_problem.s": (incl["hypothesis.audit_problem"], "s"),
        "hypothesis.growth_beta.s": (incl["hypothesis.growth_beta"], "s"),
        "hypothesis.lipschitz_kappa.calls": (calls["hypothesis.lipschitz_kappa"], "count"),
        "mild_solver.solve_global.calls": (calls["mild_solver.solve_global"], "count"),
        "mild_solver.solve_global.self_s": (own["mild_solver.solve_global"], "s"),
        "mild_solver.windows": (counts["windows"], "count"),
        "mild_solver.picard_sweeps": (sweeps, "count"),
        "mild_solver.halvings": (counts["halvings"], "count"),
        "mild_solver.sweep_s": (sweep_time / sweeps if sweeps else 0.0, "s"),
        "mild_solver.solve_coupled.outer_passes": (counts["outer_passes"], "count"),
        "mild_solver.solve_coupled.self_s": (own["mild_solver.solve_coupled"], "s"),
        "oracle.mol_solve.s": (incl["oracle.mol_solve"], "s"),
        "dependence.dependence_study.self_s": (own["dependence.dependence_study"], "s"),
        "grid.layer_l2.calls": (calls["grid.layer_l2"], "count"),
        "grid.layer_l2.s": (incl["grid.layer_l2"], "s"),
    }


def span_cost_us(calls: int = 20000, batches: int = 5) -> float:
    """Added cost of one traced call over a plain call, in microseconds."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    samples = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        samples.append((perf_counter() - t1) - (t1 - t0))
    samples.sort()
    return 1e6 * samples[batches // 2] / calls
