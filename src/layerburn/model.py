"""Layered-medium model data: coefficients, reaction terms, and fuel fields.

A problem instance on an n-layer strip consists of per-layer coefficient
fields sampled on the grid (conductivities, heat capacities via a_i + b_i*y_i,
transport c_i, reaction strengths d_i/K_i/A_i), inter-layer exchange
coefficients q_i, boundary-layer exchange qhat_1/qhat_2, an ambient
temperature u_e, and an activation parameter E.  The reaction rate factor is
the cut-off Arrhenius function g(theta) = exp(-E/theta) for theta > 0 and 0
otherwise.

Fuel is either prescribed in closed form (per-layer families, smooth in x and
t) or tabulated on a time lattice when produced by the coupled solver.  Every
fuel object can report rigorous per-node envelopes of its values over a time
interval; the quantitative audit builds its sup-norm constants from these, so
the resulting bounds hold for every t in the span, not just probe times.
Every fuel's sample takes one time, giving (n, m), or a 1-D array of k times,
giving (k, n, m) in one call with each slice bitwise the scalar sample.  In
coupled runs the fuel obeys dy/dt = -A*y*g(u); fuel_step integrates it exactly
along a temperature trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .grid import Grid, TemperatureField


# ---------------------------------------------------------------------------
# reaction rate factor


def arrhenius_g(theta, E: float):
    """exp(-E/theta) for theta > 0, identically 0 for theta <= 0."""
    if E <= 0:
        raise ValueError(f"activation parameter must be positive, got E={E}")
    th = np.asarray(theta, dtype=float)
    arg = np.full(th.shape, -np.inf)
    with np.errstate(over="ignore"):
        np.divide(-E, th, out=arg, where=th > 0.0)
    out = np.exp(arg)
    return float(out) if np.ndim(theta) == 0 else out


def arrhenius_g_prime(theta, E: float):
    """Derivative (E/theta**2) exp(-E/theta) for theta > 0, else 0.

    The sup over theta is 4 e^{-2} / E, attained at theta = E/2.  The product
    is formed in log space: near theta = 0 the prefactor overflows while the
    exponential underflows, and multiplying them directly yields NaN.
    """
    if E <= 0:
        raise ValueError(f"activation parameter must be positive, got E={E}")
    th = np.asarray(theta, dtype=float)
    out = np.zeros(th.shape)
    pos = th > 0.0
    tp = th[pos]
    with np.errstate(over="ignore"):
        out[pos] = np.exp(math.log(E) - 2.0 * np.log(tp) - E / tp)
    return float(out) if np.ndim(theta) == 0 else out


def g_prime_sup(E: float) -> float:
    return 4.0 * np.exp(-2.0) / E


# ---------------------------------------------------------------------------
# layer parameters


@dataclass
class LayerParams:
    """Per-layer coefficient fields sampled on the grid.

    Shapes: a, b, c, c_x, d, lam, K, A are (n, m); q is (n-1, m);
    qhat1 and qhat2 are (m,).  n >= 2 layers.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    c_x: np.ndarray
    d: np.ndarray
    lam: np.ndarray
    K: np.ndarray
    A: np.ndarray
    q: np.ndarray
    qhat1: np.ndarray
    qhat2: np.ndarray
    u_e: float
    E: float

    def __post_init__(self):
        for name in ("a", "b", "c", "c_x", "d", "lam", "K", "A", "q", "qhat1", "qhat2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n, m = self.a.shape
        if n < 2:
            raise ValueError(f"need at least 2 layers, got n={n}")
        for name in ("b", "c", "c_x", "d", "lam", "K", "A"):
            if getattr(self, name).shape != (n, m):
                raise ValueError(f"{name} must have shape {(n, m)}")
        if self.q.shape != (n - 1, m):
            raise ValueError(f"q must have shape {(n - 1, m)}")
        if self.qhat1.shape != (m,) or self.qhat2.shape != (m,):
            raise ValueError(f"qhat1/qhat2 must have shape {(m,)}")
        if self.E <= 0:
            raise ValueError("E must be positive")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.a.shape[1]

    @classmethod
    def constants(cls, grid: Grid, n: int, *, a=1.0, b=0.0, c=0.0, d=0.0, lam=1.0,
                  K=0.0, A=0.0, q=0.0, qhat1=0.0, qhat2=0.0, u_e=0.0, E=1.0
                  ) -> "LayerParams":
        """Constant-coefficient instance; handy for tests and closed-form checks."""
        m = grid.m

        def f(v, rows):
            return np.broadcast_to(np.asarray(v, dtype=float), (rows, m)).copy()

        return cls(
            a=f(a, n), b=f(b, n), c=f(c, n), c_x=np.zeros((n, m)), d=f(d, n),
            lam=f(lam, n), K=f(K, n), A=f(A, n),
            q=f(q, n - 1) if n > 1 else np.zeros((0, m)),
            qhat1=np.broadcast_to(np.asarray(qhat1, dtype=float), (m,)).copy(),
            qhat2=np.broadcast_to(np.asarray(qhat2, dtype=float), (m,)).copy(),
            u_e=float(u_e), E=float(E),
        )


def central_gradient(values: np.ndarray, dx: float) -> np.ndarray:
    """Centered differences, one-sided at the boundaries (np.gradient rule)."""
    return np.gradient(np.asarray(values, dtype=float), dx, axis=-1)


# ---------------------------------------------------------------------------
# fuel fields


@dataclass(frozen=True)
class ConstantFuel:
    level: float

    def profile(self, x: np.ndarray, t) -> np.ndarray:
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(t)), self.level, dtype=float)

    def time_envelope(self, x, t0, t1):
        lo = self.profile(x, t0)
        return lo, lo.copy()


@dataclass(frozen=True)
class LogisticFrontFuel:
    """Rising logistic profile translating at constant speed.

    y(x, t) = 1 / (1 + exp(-(x - center - speed*t)/width)); value 0.5 on the
    moving front, limits 0 behind and 1 ahead.  Monotone in t at fixed x.
    """

    center: float
    speed: float
    width: float

    def profile(self, x: np.ndarray, t) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(x - self.center - self.speed * t) / self.width))

    def time_envelope(self, x, t0, t1):
        y0, y1 = self.profile(x, t0), self.profile(x, t1)
        return np.minimum(y0, y1), np.maximum(y0, y1)


@dataclass(frozen=True)
class GaussianDecayFuel:
    """Gaussian bump in x whose peak decays exponentially in t."""

    center: float
    width: float
    rate: float

    def profile(self, x: np.ndarray, t) -> np.ndarray:
        return np.exp(-self.rate * t) * np.exp(-(((x - self.center) / self.width) ** 2))

    def time_envelope(self, x, t0, t1):
        y0, y1 = self.profile(x, t0), self.profile(x, t1)
        return np.minimum(y0, y1), np.maximum(y0, y1)


@dataclass
class PrescribedFuel:
    """Per-layer closed-form fuel families."""

    families: Sequence

    mode = "prescribed"

    @property
    def n(self) -> int:
        return len(self.families)

    def sample(self, grid: Grid, t) -> np.ndarray:
        """Fuel at time t, shape (n, m); at an array of k times, shape (k, n, m).

        Each family's profile broadcasts x against a column of times, so every
        slice is computed elementwise exactly as the scalar sample.
        """
        tt = t if np.ndim(t) == 0 else np.asarray(t, dtype=float)[:, None]
        return np.stack([fam.profile(grid.x, tt) for fam in self.families], axis=-2)

    def envelope(self, grid: Grid, t0: float, t1: float):
        los, his = [], []
        for fam in self.families:
            lo, hi = fam.time_envelope(grid.x, t0, t1)
            los.append(lo)
            his.append(hi)
        return np.stack(los), np.stack(his)


@dataclass
class TabulatedFuel:
    """Fuel stored on a time lattice (coupled mode); linear in t between nodes."""

    times: np.ndarray
    table: np.ndarray  # (k, n, m)

    mode = "coupled"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.table = np.asarray(self.table, dtype=float)
        if self.times.size != self.table.shape[0] or self.times.size < 1:
            raise ValueError("one fuel field per time node required")

    @property
    def n(self) -> int:
        return self.table.shape[1]

    def sample(self, grid: Grid, t) -> np.ndarray:
        """Fuel at time t, shape (n, m); at an array of k times, shape (k, n, m).

        Times at or before the first node take the first field, at or after
        the last node the last field; in between, the linear interpolant of the
        two bracketing nodes.  A single time is the one-time case of an array.
        """
        if np.ndim(t) == 0:
            return self.sample(grid, np.array([t]))[0]
        ts = self.times
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + self.table.shape[1:])
        first = t <= ts[0]
        last = ~first & (t >= ts[-1])
        out[first] = self.table[0]
        out[last] = self.table[-1]
        inner = ~(first | last)
        if inner.any():
            ti = t[inner]
            k = np.searchsorted(ts, ti)
            w = ((ti - ts[k - 1]) / (ts[k] - ts[k - 1]))[:, None, None]
            out[inner] = (1.0 - w) * self.table[k - 1] + w * self.table[k]
        return out

    def envelope(self, grid: Grid, t0: float, t1: float):
        lo_k = max(0, int(np.searchsorted(self.times, t0, side="right")) - 1)
        hi_k = min(self.times.size - 1, int(np.searchsorted(self.times, t1, side="left")))
        block = self.table[lo_k : hi_k + 1]
        return block.min(axis=0), block.max(axis=0)


@dataclass
class PerturbedFuel:
    """base fuel plus a time-independent per-node offset scale*direction."""

    base: object
    direction: np.ndarray
    scale: float

    @property
    def mode(self) -> str:
        return self.base.mode

    @property
    def n(self) -> int:
        return self.base.n

    def sample(self, grid: Grid, t) -> np.ndarray:
        """Base sample plus the offset; at an array of times, shape (k, n, m)."""
        return self.base.sample(grid, t) + self.scale * self.direction

    def envelope(self, grid: Grid, t0: float, t1: float):
        lo, hi = self.base.envelope(grid, t0, t1)
        shift = self.scale * self.direction
        return lo + shift, hi + shift


def fuel_step(y0: np.ndarray, u: np.ndarray, p: LayerParams, dt: float) -> np.ndarray:
    """Fuel table along a temperature trajectory u of shape (k+1, n, m).

    Each step of dy/dt = -A*y*g(u) is taken exactly with u frozen at the
    step's midpoint temperature (u_j + u_{j+1})/2, so y_{j+1} = y_j *
    exp(-A*g*dt); the running product starts from y0 and has shape (k+1, n, m).
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    g = arrhenius_g(0.5 * (u[:-1] + u[1:]), p.E)
    return np.cumprod(np.concatenate([y0[None], np.exp(-p.A * g * dt)]), axis=0)


# ---------------------------------------------------------------------------
# coefficients and reaction function


def coefficient_fields(p: LayerParams, y) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion and advection coefficients alpha = lam/(a+b*y), beta = c/(a+b*y)."""
    den = p.a + p.b * y
    if den.min() <= 0.0:
        raise ValueError("a + b*y must stay positive (admissibility violated)")
    return p.lam / den, p.c / den


def source_f(p: LayerParams, y, u) -> np.ndarray:
    """Reaction/exchange source per layer, divided by the capacity a + b*y.

    Layer 1 exchanges with layer 2 and the lower ambient (qhat1); interior
    layers exchange with both neighbours; layer n exchanges with layer n-1
    and the upper ambient (qhat2).  y and u are (n, m), or (..., n, m) for a
    stack of time slices, each evaluated exactly as on its own.
    """
    yv = np.asarray(y, dtype=float)
    uv = np.asarray(u, dtype=float)
    n = p.n
    den = p.a + p.b * yv
    if den.min() <= 0.0:
        raise ValueError("a + b*y must stay positive (admissibility violated)")
    g = arrhenius_g(uv, p.E)
    out = -p.c_x * uv + (p.K * p.b * uv + p.d) * yv * g
    first, last = uv[..., 0, :], uv[..., -1, :]
    out[..., 0, :] += p.q[0] * (uv[..., 1, :] - first) - p.qhat1 * (first - p.u_e)
    if n > 2:
        mid = uv[..., 1:-1, :]
        out[..., 1:-1, :] += -p.q[: n - 2] * (mid - uv[..., :-2, :]) + p.q[1 : n - 1] * (
            uv[..., 2:, :] - mid
        )
    out[..., -1, :] += -p.q[n - 2] * (last - uv[..., -2, :]) - p.qhat2 * (last - p.u_e)
    return out / den


# ---------------------------------------------------------------------------
# problem bundle and perturbation helper


@dataclass
class Problem:
    grid: Grid
    params: LayerParams
    fuel: object
    phi: TemperatureField

    def with_params(self, **updates) -> "Problem":
        return replace(self, params=replace(self.params, **updates))


def smooth_bump(x: np.ndarray, center: float, radius: float) -> np.ndarray:
    """C-infinity bump supported on |x - center| < radius, value 1 at center."""
    xi = (np.asarray(x, dtype=float) - center) / radius
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi[inside] ** 2))
    return out
