"""Spatial grid, the trajectory container, and the discrete norms and metric.

The continuum problem lives on the whole real line.  Computations truncate to
[x_min, x_max] and assume the interesting data is negligible inside a guard
band of GUARD_BAND_NODES nodes at each artificial boundary; `guard_band_ratio`
quantifies a violation.  The audit's H3 check is the only guard-band check: it
holds the ambient exchange profiles qhat1/qhat2 to GUARD_BAND_TOL.  No solver
checks the trajectory or the fuel table against the guard bands.

A state is a float (n, m) array, one row per layer.  Norms: the discrete L2
norm of one layer is the rectangle rule sqrt(dx * sum(psi**2)) with weight dx
at every node.  The norm of a state is the maximum of the per-layer norms, and
`sup_metric`, the sup over time of the norm of the difference, is the one
distance between two trajectories; they must share their time nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GUARD_BAND_NODES = 10
GUARD_BAND_TOL = 1e-8

# Values per array in one batched block of time steps (40 steps at n*m = 802),
# used by every pass over a trajectory or a lattice of steps: assembly, source
# evaluation and the reductions here.  Blocks keep their (steps, n, m)
# temporaries in L2: an unblocked pass over a long lattice measured slower, at
# m = 1024 even slower than a per-step loop.
BLOCK_NODES = 1 << 15


def steps_per_block(nodes: int) -> int:
    """Time steps per batched block for fields of `nodes` values per step."""
    return max(1, BLOCK_NODES // nodes)


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


def time_lattice(T: float, dt: float) -> np.ndarray:
    """Nodes dt*k, k = 0..T/dt, of the uniform step lattice on [0, T].

    T must be a positive whole number of dt steps (to 1e-9 relative).
    """
    total = int(round(T / dt))
    if total < 1 or abs(total * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("T must be a whole number of dt steps")
    return dt * np.arange(total + 1)


def layer_l2(values: np.ndarray, dx: float) -> np.ndarray:
    """Per-layer rectangle-rule L2 norms; values may be (n, m) or (k, n, m).

    A (k, n, m) stack is reduced a block of rows at a time, so no temporary
    is its size; each row's sum is the one a single-row call gives.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim < 3:
        return np.sqrt(dx * np.sum(v**2, axis=-1))
    out = np.empty(v.shape[:-1])
    block = steps_per_block(v.shape[1] * v.shape[2])
    for a in range(0, len(v), block):
        out[a : a + block] = np.sqrt(dx * np.sum(v[a : a + block] ** 2, axis=-1))
    return out


def l2_norm(values: np.ndarray, dx: float) -> float:
    """Max-over-layers L2 norm of a finite (n, m) state.

    A row whose sum of squares overflows is summed again scaled by its max, so
    the norm is finite whenever it is a float; every other row keeps the bits
    of `layer_l2`.
    """
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite values in field")
    with np.errstate(over="ignore"):
        norms = layer_l2(v, dx)
        for i in np.flatnonzero(np.isinf(norms)):
            top = np.max(np.abs(v[i]))
            norms[i] = top * np.sqrt(dx * np.sum((v[i] / top) ** 2))
    return float(np.max(norms))


def sup_metric(u: SolutionTrajectory, v: SolutionTrajectory) -> float:
    """Sup over shared time nodes of the max-layer L2 distance.

    Both trajectories must use identical time nodes, grids, and layer counts;
    to compare nested lattices, restrict the finer one to the coarse nodes.
    """
    if u.grid != v.grid or u.n != v.n:
        raise ValueError("trajectories live on different discretizations")
    if u.times.shape != v.times.shape or not np.array_equal(u.times, v.times):
        raise ValueError("trajectories use different time nodes")
    # a block of nodes at a time, so no temporary is trajectory-sized
    sup = 0.0
    block = steps_per_block(u.n * u.grid.m)
    for a in range(0, u.times.size, block):
        ua, va = u.values[a : a + block], v.values[a : a + block]
        if not (np.all(np.isfinite(ua)) and np.all(np.isfinite(va))):
            raise ValueError("non-finite values in trajectory")
        sup = max(sup, float(np.max(layer_l2(ua - va, u.grid.dx))))
    return sup


def guard_band_ratio(values: np.ndarray) -> float:
    """Max |value| in the boundary guard bands relative to the field sup."""
    v = np.abs(np.asarray(values, dtype=float))
    sup = float(np.max(v)) if v.size else 0.0
    if sup == 0.0:
        return 0.0
    band = max(float(np.max(v[..., :GUARD_BAND_NODES])),
               float(np.max(v[..., -GUARD_BAND_NODES:])))
    return band / sup
