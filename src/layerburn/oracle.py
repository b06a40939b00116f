"""Independent method-of-lines integrators for cross-checking the marcher.

Both integrators discretize the same semi-discrete system

    du/dt = -L_h(t) u + f(t, u)

built from the shared spatial stencil, but advance it with classical ODE
methods instead of the propagated-trapezoid fixed point: an A-stable implicit
trapezoid solved by a banded Newton iteration, and an explicit RK4 with a
hard parabolic step-size guard.  Either path agrees with the fixed-point
marcher to second order in dt, so the cross-difference on a dt-refinement
ladder must shrink at order about 2; that is what the oracle comparison
asserts.  `relative_gap` takes that difference as `grid.sup_metric` over the
reference's sup norm, so both trajectories of a rung share one time lattice.

The implicit trapezoid works node-major (all layers of node j adjacent), so
its matrices are banded with bandwidth n: layer coupling sits on the first
off-diagonals and the spatial stencil on the n-th.  It samples the fuel over
blocks of lattice nodes at once, as build_propagators does for the marcher,
and once per run of bitwise-equal fuel samples (so once per solve for a
time-invariant fuel) assembles L_h and the right-hand side's linear part:
the bands A of -L_h, layer exchange, -c_x and the exchange and ambient-loss
diagonal, all over the capacity a + b*y, and the ambient constant c.  The
right-hand side is then A v + c + R(v), where R is the pointwise reaction
(K*b*v + d)*y*g(v)/(a + b*y), from model.reaction as source_f forms it.

Each step solves its trapezoid equation by a chord (simplified) Newton
iteration (Hairer & Wanner, Solving ODEs II, IV.8): the Newton matrix is
I - (dt/2)(A + R'(v)) with R' the reaction diagonal at the step's Euler
predictor, LU-factored once by LAPACK's dgbtrf, and every iteration is one
residual and one dgbtrs solve with those factors.  The factors last for the
whole run of bitwise-equal fuel samples and are rebuilt at the current
iterate only when an update fails to shrink tenfold from the one before it.
A step still ends by adding a correction below newton_tol, so the chord
changes the trajectory only within that tolerance of the full Newton
iteration.  The iterate stays node-major from step to step, and each
accepted step is written straight into the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import GriddedFuel, generator_apply, generator_bands, repeats
from .grid import SolutionTrajectory, steps_per_block, sup_metric, time_lattice
from .lapack import dgbtrf, dgbtrs
from .model import Problem, arrhenius_g, arrhenius_g_prime, capacity, reaction, source_f


class NewtonError(RuntimeError):
    """Implicit-step Newton iteration failed to converge."""


class StabilityError(RuntimeError):
    """Requested explicit step exceeds the parabolic stability limit."""


INTEGRATORS = ("implicit-trapezoid", "explicit-rk4")  # OracleConfig.integrator
# Newton iterations of one implicit step before NewtonError.
NEWTON_MAX = 25


@dataclass
class OracleConfig:
    """One oracle solve's settings; an implicit step has NEWTON_MAX iterations
    to meet newton_tol."""

    integrator: str = "implicit-trapezoid"
    dt: float = 1e-3
    scheme: str = "auto"
    newton_tol: float = 1e-10

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


def _flat(arr: np.ndarray) -> np.ndarray:
    """Node-major flattening of an (n, m) field: index j*n + i."""
    return arr.T.ravel()


def _linear_part(p, L_tri: np.ndarray, den: np.ndarray):
    """The right-hand side's linear part at one fuel sample, node-major.

    Returns the bands A, (2n+1, N) in BLAS band layout (A[n + i - j, j] is
    the (i, j) entry, kl = ku = n), and the constant c, (N,), with
    -L_h v + [exchange, ambient loss and -c_x v] / (a + b*y) = A v + c:
    the spatial stencil sits n off the diagonal, layer exchange one off, and
    the ambient temperature u_e only in c.
    """
    n, m = den.shape
    N = n * m
    diag = np.zeros((n, m))  # -c_x, exchange and ambient loss, before dividing
    diag[0] = -p.q[0] - p.qhat1
    if n > 2:
        diag[1:-1] = -(p.q[: n - 2] + p.q[1 : n - 1])
    diag[-1] = -p.q[n - 2] - p.qhat2
    diag -= p.c_x
    diag /= den
    diag -= L_tri[:, 1]
    A = np.zeros((2 * n + 1, N))
    A[n] = _flat(diag)
    # spatial stencil: same layer, neighbouring node (offset n)
    A[0, n:] = -_flat(L_tri[:, 2])[:-n]
    A[2 * n, : N - n] = -_flat(L_tri[:, 0])[n:]
    # layer exchange: same node, neighbouring layer (offset 1)
    cup = np.zeros((n, m))
    cup[:-1] = p.q / den[:-1]
    A[n - 1, 1:] = _flat(cup)[:-1]
    cdn = np.zeros((n, m))
    cdn[1:] = p.q / den[1:]
    A[n + 1, : N - 1] = _flat(cdn)[1:]
    c = np.zeros((n, m))
    c[0] = p.qhat1 * p.u_e
    c[-1] += p.qhat2 * p.u_e
    c /= den
    return A, _flat(c)


def _rhs(run: tuple, kb: np.ndarray, d: np.ndarray, E: float, v: np.ndarray) -> np.ndarray:
    """A v + c + R(v) for a node-major v, R the reaction over a + b*y.

    run is (A, c, y, a + b*y) at one fuel sample, the last two node-major;
    kb = K*b and d are node-major too.
    """
    A, c, y, den = run
    n = (A.shape[0] - 1) // 2
    out = A[n] * v
    out[:-1] += A[n - 1, 1:] * v[1:]
    out[1:] += A[n + 1, :-1] * v[:-1]
    out[:-n] += A[0, n:] * v[n:]
    out[n:] += A[2 * n, :-n] * v[:-n]
    out += c
    r = reaction(kb, d, y, v, E)
    r /= den
    out += r
    return out


def mol_solve(problem: Problem, T: float, cfg: OracleConfig | None = None
              ) -> SolutionTrajectory:
    """Integrate the semi-discrete system on the dt lattice over [0, T]."""
    cfg = cfg or OracleConfig()
    times = time_lattice(T, cfg.dt)
    total = times.size - 1

    p = problem.params
    grid = problem.grid
    fuel = GriddedFuel(problem.fuel, grid)
    n, m = problem.phi.shape

    values = np.empty((total + 1, n, m))
    values[0] = problem.phi

    if cfg.integrator == "explicit-rk4":
        _check_explicit_stability(p, fuel, T, cfg.dt)

        def rhs(v: np.ndarray, L_tri: np.ndarray, y: np.ndarray) -> np.ndarray:
            return -generator_apply(L_tri, v) + source_f(p, y, v)

        for k in range(total):
            t = float(times[k])
            dt = cfg.dt
            u = values[k]
            tm = t + 0.5 * dt
            te = float(times[k + 1])
            ys = fuel.sample(np.array([t, tm, te]))
            L0, Lm, Le = generator_bands(p, ys, grid.dx, cfg.scheme)
            k1 = rhs(u, L0, ys[0])
            k2 = rhs(u + 0.5 * dt * k1, Lm, ys[1])
            k3 = rhs(u + 0.5 * dt * k2, Lm, ys[1])
            k4 = rhs(u + dt * k3, Le, ys[2])
            values[k + 1] = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(values[k + 1])):
                raise StabilityError(f"explicit step produced non-finite values at t={te:.6g}")
        return SolutionTrajectory(times, values, grid)

    # implicit trapezoid with a chord Newton iteration per step, node-major
    half_dt = 0.5 * cfg.dt
    kb = _flat(p.K * p.b)
    d = _flat(p.d)
    E = p.E

    def factor(v, t):
        """LU factors of I - (dt/2)(A + R'(v)), with the current run's bands."""
        _, _, y, den = run
        g = arrhenius_g(v, E)
        gp = arrhenius_g_prime(v, E)
        ab[2 * n] = main - half_dt * ((kb * y * g + (kb * v + d) * y * gp) / den)
        lu, piv, info = dgbtrf(ab, n, n)
        if info != 0:
            raise NewtonError(f"singular Newton matrix at t={t:.6g} (dgbtrf info {info})")
        return lu, piv

    block = steps_per_block(n * m)
    u = _flat(values[0])
    sample = None  # fuel sample at the last node of the previous block
    for a in range(0, total + 1, block):
        # fuel and generator for a block of lattice nodes, as build_propagators does
        ys = fuel.sample(times[a : a + block])
        same = repeats(ys, sample)
        # L_h only at the nodes that start a run of equal samples
        if not same.all():
            Ls = iter(generator_bands(p, ys[~same], grid.dx, cfg.scheme))
        for j in range(ys.shape[0]):
            sample = ys[j]
            if not same[j]:
                # a factorization rewrites only row 2n, so the bands last while y does
                den = capacity(p, sample)
                A, c = _linear_part(p, next(Ls), den)
                run = A, c, _flat(sample), _flat(den)
                ab = np.zeros((3 * n + 1, n * m))
                ab[n:] = -half_dt * A
                main = 1.0 - half_dt * A[n]
                lu = None  # the run's first step factors at its predictor
            if a + j == 0:
                run_k = run
                continue
            k = a + j - 1
            t_next = float(times[k + 1])
            rhs_k = _rhs(run_k, kb, d, E, u)
            v = u + cfg.dt * rhs_k  # Euler predictor
            base = u + half_dt * rhs_k
            if lu is None:
                lu, piv = factor(v, t_next)
            last = math.inf
            for _ in range(NEWTON_MAX):
                # -G(v) = u + (dt/2)(rhs_k + rhs(v)) - v
                neg_G = _rhs(run, kb, d, E, v)
                neg_G *= half_dt
                neg_G += base
                neg_G -= v
                delta, _ = dgbtrs(lu, n, n, neg_G, piv, overwrite_b=1)
                v += delta
                size = float(np.abs(delta).max())
                if size <= cfg.newton_tol * (1.0 + float(np.abs(v).max())):
                    break
                if size > 0.1 * last:  # the chord stalls: refactor at the iterate
                    lu, piv = factor(v, t_next)
                last = size
            else:
                raise NewtonError(
                    f"Newton stalled at t={t_next:.6g} (last update {size:.3e})")
            values[k + 1].T[...] = v.reshape(m, n)
            u, run_k = v, run
    return SolutionTrajectory(times, values, grid)


def _check_explicit_stability(p, fuel: GriddedFuel, T: float, dt: float) -> None:
    """RK4 parabolic guard: dt <= 0.4 dx^2 / max(alpha), plus an advective CFL."""
    ylo, yhi = fuel.envelope(0.0, T)
    den_min = np.minimum(capacity(p, ylo), capacity(p, yhi))
    alpha_max = float(np.max(p.lam / den_min))
    beta_max = float(np.max(np.abs(p.c) / den_min))
    dx = fuel.grid.dx
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


def relative_gap(a: SolutionTrajectory, reference: SolutionTrajectory) -> float:
    """sup_metric(a, reference) over the reference's sup norm; same time nodes."""
    return sup_metric(a, reference) / max(reference.sup_norm(), np.finfo(float).tiny)


def refinement_orders(gaps) -> list[float]:
    """Observed orders log2(g_j / g_{j+1}) along a dt-halving ladder."""
    out = []
    for ga, gb in zip(gaps, gaps[1:]):
        if ga <= 0 or gb <= 0:
            raise ValueError("gaps must be positive to estimate an order")
        out.append(math.log2(ga / gb))
    return out
