"""Spatial grid, field containers, and the discrete norms used by every solver.

The continuum problem lives on the whole real line.  Computations truncate to
[x_min, x_max] and assume the interesting data is negligible inside a guard
band of GUARD_BAND_NODES nodes at each artificial boundary; `guard_band_ratio`
quantifies a violation.  The audit's H3 check is the only guard-band check: it
holds the ambient exchange profiles qhat1/qhat2 to GUARD_BAND_TOL.  No solver
checks the trajectory or the fuel table against the guard bands.

Norms: the discrete L2 norm of one layer is the rectangle rule
sqrt(dx * sum(psi**2)) with weight dx at every node.  The norm of an n-layer
field is the maximum of the per-layer norms, and the metric between two
trajectories on identical time nodes is the sup over time of that norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GUARD_BAND_NODES = 10
GUARD_BAND_TOL = 1e-8


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    m: int
    x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x", np.linspace(self.x_min, self.x_max, self.m))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.m - 1)


def make_grid(x_min: float, x_max: float, m: int) -> Grid:
    if not (np.isfinite(x_min) and np.isfinite(x_max)) or x_max <= x_min:
        raise ValueError(f"need finite x_min < x_max, got [{x_min}, {x_max}]")
    if m < 3:
        raise ValueError(f"need at least 3 nodes, got m={m}")
    return Grid(float(x_min), float(x_max), int(m))


@dataclass
class TemperatureField:
    """Stacked per-layer temperatures, shape (n_layers, m)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.m:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid with m={self.grid.m}"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class SolutionTrajectory:
    """States on strictly increasing time nodes; values has shape (k, n, m)."""

    times: np.ndarray
    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.values.ndim != 3:
            raise ValueError("times must be 1-d and values (k, n, m)")
        if self.values.shape[0] != self.times.size:
            raise ValueError("one state per time node required")
        if self.values.shape[2] != self.grid.m:
            raise ValueError("state width does not match grid")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("time nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def sup_norm(self) -> float:
        return float(np.max(layer_l2(self.values, self.grid.dx))) if self.times.size else 0.0


def layer_l2(values: np.ndarray, dx: float) -> np.ndarray:
    """Per-layer rectangle-rule L2 norms; values may be (n, m) or (k, n, m)."""
    return np.sqrt(dx * np.sum(np.asarray(values, dtype=float) ** 2, axis=-1))


def l2_norm(psi: TemperatureField) -> float:
    if not np.all(np.isfinite(psi.values)):
        raise ValueError("non-finite values in field")
    return float(np.max(layer_l2(psi.values, psi.grid.dx)))


def sup_metric(u: SolutionTrajectory, v: SolutionTrajectory) -> float:
    """Sup over shared time nodes of the max-layer L2 distance.

    Both trajectories must use identical time nodes, grids, and layer counts;
    comparing unlike discretizations is the oracle module's job.
    """
    if u.grid != v.grid or u.n != v.n:
        raise ValueError("trajectories live on different discretizations")
    if u.times.shape != v.times.shape or not np.array_equal(u.times, v.times):
        raise ValueError("trajectories use different time nodes")
    if not (np.all(np.isfinite(u.values)) and np.all(np.isfinite(v.values))):
        raise ValueError("non-finite values in trajectory")
    if u.times.size == 0:
        return 0.0
    return float(np.max(layer_l2(u.values - v.values, u.grid.dx)))


def guard_band_ratio(values: np.ndarray) -> float:
    """Max |value| in the boundary guard bands relative to the field sup."""
    v = np.abs(np.asarray(values, dtype=float))
    sup = float(np.max(v)) if v.size else 0.0
    if sup == 0.0:
        return 0.0
    band = max(float(np.max(v[..., :GUARD_BAND_NODES])),
               float(np.max(v[..., -GUARD_BAND_NODES:])))
    return band / sup
