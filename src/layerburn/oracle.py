"""Independent method-of-lines integrators for cross-checking the marcher.

Both integrators discretize the same semi-discrete system

    du/dt = -L_h(t) u + f(t, u)

built from the shared spatial stencil, but advance it with classical ODE
methods instead of the propagated-trapezoid fixed point: an A-stable implicit
trapezoid solved by a banded Newton iteration, and an explicit RK4 with a
hard parabolic step-size guard.  Either path agrees with the fixed-point
marcher to second order in dt, so the cross-difference on a dt-refinement
ladder must shrink at order about 2; that is what the oracle comparison
asserts.

The Newton system is ordered node-major (all layers of node j adjacent), so
the Jacobian is banded with bandwidth n: layer coupling sits on the first
off-diagonals and the spatial stencil on the n-th.

The implicit trapezoid samples the fuel and assembles L_h over blocks of
lattice nodes at once, as build_propagators does for the marcher, and builds
the parts of each step's Jacobian that do not depend on the Newton iterate
(the capacities a + b*y, the exchange bands, the (dt/2) L_h stencil bands
and 1 + (dt/2) diag L_h) once per step; a Newton iteration only refreshes the
reaction diagonal.  All of it is elementwise, so every iterate is bitwise
that of assembling each node on its own inside every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .evolution import GriddedFuel, generator_apply, generator_bands, steps_per_block
from .grid import SolutionTrajectory, layer_l2
from .model import Problem, arrhenius_g, arrhenius_g_prime, source_f


class NewtonError(RuntimeError):
    """Implicit-step Newton iteration failed to converge."""


class StabilityError(RuntimeError):
    """Requested explicit step exceeds the parabolic stability limit."""


@dataclass
class OracleConfig:
    integrator: str = "implicit-trapezoid"  # or "explicit-rk4"
    dt: float = 1e-3
    scheme: str = "auto"
    newton_tol: float = 1e-10
    newton_max: int = 25

    def __post_init__(self):
        if self.integrator not in ("implicit-trapezoid", "explicit-rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def _flat(arr: np.ndarray) -> np.ndarray:
    """Node-major flattening of an (n, m) field: index j*n + i."""
    return arr.T.ravel()


def _unflat(vec: np.ndarray, n: int, m: int) -> np.ndarray:
    return vec.reshape(m, n).T


def _coupling_diag(p) -> np.ndarray:
    """Per-node diagonal part of the exchange terms, before dividing by a+b*y."""
    n, m = p.a.shape
    out = np.zeros((n, m))
    out[0] = -p.q[0] - p.qhat1
    if n > 2:
        out[1:-1] = -(p.q[: n - 2] + p.q[1 : n - 1])
    out[-1] = -p.q[n - 2] - p.qhat2
    return out


def _newton_bands(p, L_tri: np.ndarray, den: np.ndarray, half_dt: float):
    """The iterate-free part of the Newton matrix of one step, scipy layout.

    Returns the banded matrix with every band of J = I + (dt/2) L - (dt/2) df/du
    but the main diagonal filled in, and 1 + (dt/2) diag L, from which each
    iteration forms the main diagonal.
    """
    n, m = den.shape
    N = n * m
    ab = np.zeros((2 * n + 1, N))
    # spatial stencil: same layer, neighbouring node (offset n)
    ab[0, n:] = half_dt * _flat(L_tri[:, 2])[:-n]
    ab[2 * n, : N - n] = half_dt * _flat(L_tri[:, 0])[n:]
    # layer exchange: same node, neighbouring layer (offset 1)
    cup = np.zeros((n, m))
    cup[:-1] = p.q / den[:-1]
    ab[n - 1, 1:] = -half_dt * _flat(cup)[:-1]
    cdn = np.zeros((n, m))
    cdn[1:] = p.q / den[1:]
    ab[n + 1, : N - 1] = -half_dt * _flat(cdn)[1:]
    return ab, 1.0 + half_dt * L_tri[:, 1]


def mol_solve(problem: Problem, T: float, cfg: OracleConfig | None = None
              ) -> SolutionTrajectory:
    """Integrate the semi-discrete system on the dt lattice over [0, T]."""
    cfg = cfg or OracleConfig()
    if T <= 0:
        raise ValueError("T must be positive")
    total = int(round(T / cfg.dt))
    if total < 1 or abs(total * cfg.dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("T must be a whole number of dt steps")

    p = problem.params
    grid = problem.grid
    fuel = GriddedFuel(problem.fuel, grid)
    n, m = problem.phi.values.shape
    times = cfg.dt * np.arange(total + 1)

    if cfg.integrator == "explicit-rk4":
        _check_explicit_stability(p, fuel, grid, T, cfg.dt)

    def rhs(t: float, v: np.ndarray, L_tri: np.ndarray, y: np.ndarray) -> np.ndarray:
        return -generator_apply(L_tri, v) + source_f(p, y, v)

    values = np.empty((total + 1, n, m))
    values[0] = problem.phi.values

    if cfg.integrator == "explicit-rk4":
        for k in range(total):
            t = float(times[k])
            dt = cfg.dt
            u = values[k]
            tm = t + 0.5 * dt
            te = float(times[k + 1])
            ys = fuel.sample(grid, np.array([t, tm, te]))
            L0, Lm, Le = generator_bands(p, ys, grid.dx, cfg.scheme)
            k1 = rhs(t, u, L0, ys[0])
            k2 = rhs(tm, u + 0.5 * dt * k1, Lm, ys[1])
            k3 = rhs(tm, u + 0.5 * dt * k2, Lm, ys[1])
            k4 = rhs(te, u + dt * k3, Le, ys[2])
            values[k + 1] = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(values[k + 1])):
                raise StabilityError(f"explicit step produced non-finite values at t={te:.6g}")
        return SolutionTrajectory(times, values, grid)

    # implicit trapezoid with full Newton per step
    half_dt = 0.5 * cfg.dt
    kb = p.K * p.b
    neg_cx = -p.c_x
    coupling = _coupling_diag(p)
    block = steps_per_block(n * m)
    for a in range(0, total + 1, block):
        # fuel and generator for a block of lattice nodes, as build_propagators does
        ys = fuel.sample(grid, times[a : a + block])
        Ls = generator_bands(p, ys, grid.dx, cfg.scheme)
        for j in range(ys.shape[0]):
            L_next, y_next = Ls[j], ys[j]
            if a + j == 0:
                L_k, y_k = L_next, y_next
                continue
            k = a + j - 1
            u = values[k]
            t_next = float(times[k + 1])
            rhs_k = rhs(float(times[k]), u, L_k, y_k)
            den = p.a + p.b * y_next
            ab, main = _newton_bands(p, L_next, den, half_dt)
            kby = kb * y_next

            v = u + cfg.dt * rhs_k  # Euler predictor
            converged = False
            for _ in range(cfg.newton_max):
                G = v - u - half_dt * (rhs_k + rhs(t_next, v, L_next, y_next))
                # reaction and exchange diagonal of df/du at v
                g = arrhenius_g(v, p.E)
                gp = arrhenius_g_prime(v, p.E)
                df_diag = (neg_cx + kby * g + (kb * v + p.d) * y_next * gp + coupling) / den
                ab[n] = _flat(main - half_dt * df_diag)
                delta = solve_banded((n, n), ab, -_flat(G), check_finite=False)
                v = v + _unflat(delta, n, m)
                tol = cfg.newton_tol * (1.0 + float(np.max(np.abs(v))))
                if float(np.max(np.abs(delta))) <= tol:
                    converged = True
                    break
            if not converged:
                raise NewtonError(
                    f"Newton stalled at t={t_next:.6g} "
                    f"(last update {float(np.max(np.abs(delta))):.3e})"
                )
            values[k + 1] = v
            L_k, y_k = L_next, y_next
    return SolutionTrajectory(times, values, grid)


def _check_explicit_stability(p, fuel: GriddedFuel, grid, T: float, dt: float) -> None:
    """RK4 parabolic guard: dt <= 0.4 dx^2 / max(alpha), plus an advective CFL."""
    ylo, yhi = fuel.envelope(grid, 0.0, T)
    den_lo = p.a + p.b * ylo
    den_hi = p.a + p.b * yhi
    den_min = np.minimum(den_lo, den_hi)
    if den_min.min() <= 0.0:
        raise ValueError("a + b*y must stay positive over the run")
    alpha_max = float(np.max(p.lam / den_min))
    beta_max = float(np.max(np.abs(p.c) / den_min))
    dx = grid.dx
    limit = 0.4 * dx * dx / alpha_max if alpha_max > 0 else math.inf
    if beta_max > 0:
        limit = min(limit, 0.5 * dx / beta_max)
    if dt > limit:
        raise StabilityError(
            f"explicit dt {dt:.3e} exceeds the stability limit {limit:.3e}; "
            "refine dt or use the implicit integrator"
        )


# ---------------------------------------------------------------------------
# trajectory comparison


def compare(a: SolutionTrajectory, b: SolutionTrajectory) -> float:
    """Sup over the coarser trajectory's nodes of the max-layer L2 distance.

    The finer trajectory is interpolated linearly in time, so ladders with
    non-nested steps still compare; identical lattices compare node-for-node.
    """
    if a.grid != b.grid or a.n != b.n:
        raise ValueError("trajectories live on different discretizations")
    coarse, fine = (a, b) if a.times.size <= b.times.size else (b, a)
    lo, hi = fine.times[0], fine.times[-1]
    if coarse.times[0] < lo - 1e-12 or coarse.times[-1] > hi + 1e-12:
        raise ValueError("time ranges do not overlap; cannot compare")
    idx = np.clip(np.searchsorted(fine.times, coarse.times), 1, fine.times.size - 1)
    t0 = fine.times[idx - 1]
    t1 = fine.times[idx]
    w = np.clip((coarse.times - t0) / (t1 - t0), 0.0, 1.0)
    interp = (1.0 - w)[:, None, None] * fine.values[idx - 1] \
        + w[:, None, None] * fine.values[idx]
    return float(np.max(layer_l2(interp - coarse.values, coarse.grid.dx)))


def relative_gap(a: SolutionTrajectory, reference: SolutionTrajectory) -> float:
    sup = reference.sup_norm()
    return compare(a, reference) / max(sup, np.finfo(float).tiny)


def refinement_orders(gaps) -> list[float]:
    """Observed orders log2(g_j / g_{j+1}) along a dt-halving ladder."""
    out = []
    for ga, gb in zip(gaps, gaps[1:]):
        if ga <= 0 or gb <= 0:
            raise ValueError("gaps must be positive to estimate an order")
        out.append(math.log2(ga / gb))
    return out
