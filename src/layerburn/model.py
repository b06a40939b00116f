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
giving (k, n, m) in one call with each slice bitwise the scalar sample.  Every
fuel also says whether it is time_invariant, every sample bitwise its t = 0
sample; such a fuel samples an array of times as a read-only broadcast of
that one field, so all its samples are one run of bitwise-equal samples.  In
coupled runs the fuel obeys dy/dt = -A*y*g(u); fuel_step integrates it exactly
along a temperature trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .grid import Grid


# ---------------------------------------------------------------------------
# reaction rate factor


_TINY = np.finfo(float).tiny  # smallest normal float


def check_activation(E: float) -> None:
    """The activation parameter must be positive and finite (NaN is neither)."""
    if not 0.0 < E < math.inf:
        raise ValueError(f"activation parameter E must be positive and finite, got E={E}")


def arrhenius_g(theta, E: float):
    """exp(-E/theta) for theta > 0, identically 0 for theta <= 0."""
    check_activation(E)
    th = np.asarray(theta, dtype=float)
    # exp(x) is exactly 0 below x = -745.14 and numpy reaches that 0 through a
    # slow path, so nodes with E/theta >= 745.5 are set to 0 without calling
    # it.  The cut E/745.5 is sharp only while it is a normal float; for
    # smaller E every theta > 0 is computed.
    cut = E / 745.5
    live = th > (cut if cut >= _TINY else 0.0)
    out = np.zeros(th.shape)
    arg = np.divide(-E, th[live])
    out[live] = np.exp(arg, out=arg)
    return float(out) if np.ndim(theta) == 0 else out


def arrhenius_g_prime(theta, E: float):
    """Derivative (E/theta**2) exp(-E/theta) for theta > 0, else 0.

    The sup over theta is 4 e^{-2} / E, attained at theta = E/2.  The product
    is formed in log space: near theta = 0 the prefactor overflows while the
    exponential underflows, and multiplying them directly yields NaN.
    """
    check_activation(E)
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
        check_activation(self.E)

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

    time_invariant = True

    def profile(self, x: np.ndarray, t) -> np.ndarray:
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(t)), self.level, dtype=float)


@dataclass(frozen=True)
class LogisticFrontFuel:
    """Rising logistic profile translating at constant speed.

    y(x, t) = 1 / (1 + exp(-(x - center - speed*t)/width)); value 0.5 on the
    moving front, limits 0 behind and 1 ahead.  Monotone in t at fixed x.
    """

    center: float
    speed: float
    width: float

    @property
    def time_invariant(self) -> bool:
        return self.speed == 0.0

    def profile(self, x: np.ndarray, t) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(x - self.center - self.speed * t) / self.width))


@dataclass(frozen=True)
class GaussianDecayFuel:
    """Gaussian bump in x whose peak decays exponentially in t."""

    center: float
    width: float
    rate: float

    @property
    def time_invariant(self) -> bool:
        return self.rate == 0.0

    def profile(self, x: np.ndarray, t) -> np.ndarray:
        return np.exp(-self.rate * t) * np.exp(-(((x - self.center) / self.width) ** 2))


def time_envelope(family, x, t0: float, t1: float):
    """Per-node (lo, hi) of a fuel family over [t0, t1]; every family is monotone in t."""
    y0, y1 = family.profile(x, t0), family.profile(x, t1)
    return np.minimum(y0, y1), np.maximum(y0, y1)


class _Fuel:
    """Sampling shared by the fuel specs.

    A spec is time_invariant when every sample is bitwise its t = 0 sample;
    one that cannot promise that says False.  sample(grid, t) gives the field
    at time t, shape (n, m), or at a 1-D array of k times, shape (k, n, m),
    each slice bitwise the scalar sample.  For a time-invariant spec the
    array case is a read-only broadcast of the one t = 0 field, which costs
    one field however many times are asked for; build_propagators then finds
    every sample equal to the one before and keys the steps by dt alone.
    """

    time_invariant = False

    def sample(self, grid: Grid, t) -> np.ndarray:
        if np.ndim(t) and self.time_invariant:
            return np.broadcast_to(self._sample(grid, 0.0), np.shape(t) + (self.n, grid.m))
        return self._sample(grid, t)


@dataclass
class PrescribedFuel(_Fuel):
    """Per-layer closed-form fuel families; time-invariant when every family is."""

    families: Sequence

    @property
    def n(self) -> int:
        return len(self.families)

    @property
    def time_invariant(self) -> bool:
        return all(fam.time_invariant for fam in self.families)

    def _sample(self, grid: Grid, t) -> np.ndarray:
        """Each family's profile broadcasts x against a column of times, so every
        slice is computed elementwise exactly as the scalar sample; it is
        written into the output one family at a time.
        """
        tt = t if np.ndim(t) == 0 else np.asarray(t, dtype=float)[:, None]
        out = np.empty(np.shape(t) + (self.n, grid.m))
        for i, fam in enumerate(self.families):
            out[..., i, :] = fam.profile(grid.x, tt)
        return out

    def envelope(self, grid: Grid, t0: float, t1: float):
        los, his = zip(*(time_envelope(fam, grid.x, t0, t1) for fam in self.families))
        return np.stack(los), np.stack(his)


@dataclass
class TabulatedFuel(_Fuel):
    """Fuel stored on a time lattice (coupled mode); linear in t between nodes.

    Only a one-node table is time-invariant: interpolating between two equal
    nodes can round away from them, so equal rows do not make it exact.
    """

    times: np.ndarray
    table: np.ndarray  # (k, n, m)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.table = np.asarray(self.table, dtype=float)
        if self.times.size != self.table.shape[0] or self.times.size < 1:
            raise ValueError("one fuel field per time node required")

    @property
    def n(self) -> int:
        return self.table.shape[1]

    @property
    def time_invariant(self) -> bool:
        return self.times.size == 1

    def _sample(self, grid: Grid, t) -> np.ndarray:
        """Times at or before the first node take the first field, at or after
        the last node the last field; in between, the linear interpolant of the
        two bracketing nodes.  A single time is the one-time case of an array.
        """
        if np.ndim(t) == 0:
            return self._sample(grid, np.array([t]))[0]
        ts = self.times
        t = np.asarray(t, dtype=float)
        first = t <= ts[0]
        last = ~first & (t >= ts[-1])
        inner = ~(first | last)
        k = np.searchsorted(ts, t)  # ts[k-1] < t <= ts[k] where inner
        # the lower bracket, or the first or last field, is gathered as the output
        out = self.table.take(np.where(first, 0, np.where(last, ts.size - 1, k - 1)), axis=0)
        if inner.any():
            # (1 - w)*table[k-1] + w*table[k] on the inner rows, with one temporary
            ki = k[inner]
            w = np.zeros(t.shape)
            w[inner] = (t[inner] - ts[ki - 1]) / (ts[ki] - ts[ki - 1])
            w, rows = w[..., None, None], inner[..., None, None]
            np.multiply(out, 1.0 - w, out=out, where=rows)
            upper = self.table.take(np.where(inner, k, 0), axis=0)
            np.multiply(upper, w, out=upper, where=rows)
            np.add(out, upper, out=out, where=rows)
        return out

    def envelope(self, grid: Grid, t0: float, t1: float):
        lo_k = max(0, int(np.searchsorted(self.times, t0, side="right")) - 1)
        hi_k = min(self.times.size - 1, int(np.searchsorted(self.times, t1, side="left")))
        block = self.table[lo_k : hi_k + 1]
        return block.min(axis=0), block.max(axis=0)


@dataclass
class PerturbedFuel(_Fuel):
    """base fuel plus a time-independent per-node offset scale*direction."""

    base: object
    direction: np.ndarray
    scale: float

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def time_invariant(self) -> bool:
        return self.base.time_invariant

    def _sample(self, grid: Grid, t) -> np.ndarray:
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
# capacity and reaction function


def capacity(p: LayerParams, y) -> np.ndarray:
    """The heat capacity w = a + b*y, which divides the generator and the source,
    at fuel fields y; a ValueError unless it is positive."""
    den = p.a + p.b * y
    if den.min() <= 0.0:
        raise ValueError("a + b*y must stay positive (admissibility violated)")
    return den


def reaction(kb, d, y, u, E: float) -> np.ndarray:
    """Pointwise reaction (kb*u + d)*y*g(u) with kb = K*b, before dividing by
    the capacity a + b*y.  Elementwise, so any common shape or layout works."""
    out = (kb * u + d) * y
    out *= arrhenius_g(u, E)
    return out


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
    den = capacity(p, yv)
    # in place where the operands allow; a + b is b + a bit for bit
    out = reaction(p.K * p.b, p.d, yv, uv, p.E)
    out += -p.c_x * uv
    first, last = uv[..., 0, :], uv[..., -1, :]
    out[..., 0, :] += p.q[0] * (uv[..., 1, :] - first) - p.qhat1 * (first - p.u_e)
    if n > 2:
        mid = uv[..., 1:-1, :]
        out[..., 1:-1, :] += -p.q[: n - 2] * (mid - uv[..., :-2, :]) + p.q[1 : n - 1] * (
            uv[..., 2:, :] - mid
        )
    out[..., -1, :] += -p.q[n - 2] * (last - uv[..., -2, :]) - p.qhat2 * (last - p.u_e)
    out /= den
    return out


# ---------------------------------------------------------------------------
# problem bundle and perturbation helper


@dataclass
class Problem:
    """Grid, coefficients, fuel and the initial state phi, a float (n, m) array."""

    grid: Grid
    params: LayerParams
    fuel: object
    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.shape != (self.params.n, self.grid.m):
            raise ValueError(f"phi has shape {self.phi.shape}, "
                             f"need (n, m) = {(self.params.n, self.grid.m)}")

    def with_params(self, **updates) -> "Problem":
        return replace(self, params=replace(self.params, **updates))
