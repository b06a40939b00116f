"""Kernel microbench: build_propagator and Propagator.apply_values per call.

Shapes m in {401, 1024, 4096} and n in {2, 4} on a constant-coefficient
drift-diffusion problem.  The largest call touches 72*n*m bytes of distinct
data (about 1.2 MB at m=4096, n=4), which fits in one core's L2, so these
numbers measure call overhead and in-cache arithmetic, not memory bandwidth.
Flops and bytes are computed from the array sizes (see tracer.py), not
counted by hardware.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from layerburn import evolution
from layerburn.grid import make_grid
from layerburn.model import ConstantFuel, LayerParams, PrescribedFuel

from tracer import APPLY_BYTES_PER_NODE, APPLY_FLOPS_PER_NODE

SHAPES = [(m, n) for m in (401, 1024, 4096) for n in (2, 4)]


def _us_per_call(fn, batch_s: float = 0.01, batches: int = 7) -> float:
    """Median over batches of the mean call time, batches sized to ~batch_s."""
    t = perf_counter()
    fn()
    per = max(perf_counter() - t, 1e-7)
    reps = max(1, int(batch_s / per))
    samples = []
    for _ in range(batches):
        t = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - t) / reps)
    return 1e6 * statistics.median(samples)


def microbench() -> dict:
    """{metric name: (value, unit)} for every shape."""
    out = {}
    for m, n in SHAPES:
        grid = make_grid(-10.0, 10.0, m)
        p = LayerParams.constants(grid, n, a=1.0, c=0.5, lam=1.0)
        fuel = evolution.GriddedFuel(PrescribedFuel([ConstantFuel(1.0)] * n), grid)
        prop = evolution.build_propagator(p, fuel, 0.0, 1e-3)
        v = np.random.default_rng(0).standard_normal((n, m))
        key = f"m{m}_n{n}"
        out[f"kernel.build_propagator.{key}.us_per_call"] = (
            _us_per_call(lambda: evolution.build_propagator(p, fuel, 0.0, 1e-3)), "us")
        out[f"kernel.apply_values.{key}.us_per_call"] = (
            _us_per_call(lambda: prop.apply_values(v)), "us")
        out[f"kernel.apply_values.{key}.flops"] = (APPLY_FLOPS_PER_NODE * n * m, "flop")
        out[f"kernel.apply_values.{key}.bytes"] = (APPLY_BYTES_PER_NODE * n * m, "B")
    return out
