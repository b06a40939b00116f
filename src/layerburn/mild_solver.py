"""Fixed-point solver for the integral (Duhamel) form of the layered model.

The solution on a window [t0, t0 + w] is the fixed point of

    (Phi u)(t) = U(t, t0) phi + integral_{t0}^{t} U(t, s) f(s, u(s)) ds,

discretized on a uniform step lattice: the integral is accumulated by the
propagated trapezoid rule

    I_{k+1} = U_k [ I_k + (dt/2) f(t_k, u_k) ] + (dt/2) f(t_{k+1}, u_{k+1}),

so the converged iterate satisfies the one-step recursion

    u_{k+1} = U_k u_k + (dt/2) (U_k f_k + f_{k+1}),

which is independent of how [0, T] is split into windows.  Global solves
chain windows chosen by one of two certified rules (the continuation window
epsilon(t0) or the fixed contraction step T'), both of which bound the Picard
contraction factor by 1/2; a third, adaptive mode ignores the certified
constants, starts from the whole remaining span, and halves on observed
divergence instead.  Every global solve is audited first and checked against
the a-priori growth bound afterwards (a warning rather than a failure in
adaptive mode); runaway iterates trip the blow-up guard instead of
overflowing silently.

A window's step operators come from one batched build_propagators call and
its fuel from one sample call.  Each sweep evaluates f with one source_f call
per block of time steps and forms the trapezoid terms (dt/2) f_k and
(dt/2) f_{k+1} for the same block of steps at once; the recursion stays one
step at a time, so the iterates are bitwise those of a per-step loop.

Coupled fuel runs alternate: freeze the fuel table, solve for temperature,
restep the fuel ODE through the new temperatures (one fuel_step call over the
whole lattice), repeat until neither field moves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .evolution import GriddedFuel, build_propagators, steps_per_block
from .grid import SolutionTrajectory, l2_norm, layer_l2, sup_metric
from .hypothesis import (
    HypothesisReport,
    audit_problem,
    bound_mu,
    continuation_epsilon,
    continuation_radius,
    lipschitz_kappa,
)
from .model import Problem, TabulatedFuel, fuel_step, source_f


# Relative slack of the a-priori check: observed <= bound * (1 + APRIORI_SLACK).
APRIORI_SLACK = 1e-8


class SolverError(RuntimeError):
    """Base class for runtime solve failures (exit code 3 territory)."""


class BlowUpError(SolverError):
    """An iterate left the finite range or crossed the blow-up ceiling."""


class PicardDivergenceError(SolverError):
    """Picard iteration failed to contract within the iteration budget."""


class AprioriViolationError(SolverError):
    """A finished run violated the a-priori growth bound."""


class AuditError(RuntimeError):
    """Admissibility audit failed; carries the report."""

    def __init__(self, report: HypothesisReport):
        super().__init__("admissibility audit failed:\n" + report.to_text())
        self.report = report


@dataclass
class SolverConfig:
    """Tunables for the fixed-point marcher.

    dt pins the global step lattice (windows snap to it); when None, each
    window is cut into time_steps_per_window equal steps instead.  seed_mode
    picks the Picard starting guess: the homogeneous evolution of the window
    state, or that state held constant in time.  window_mode "continuation"
    and "contraction" use the two certified window rules; "adaptive" ignores
    the certified constants, starts from the whole remaining span, halves on
    divergence (detected early by gap growth over three consecutive sweeps),
    and demotes the a-priori check to a warning; the certified modes raise.
    """

    theta: float = 0.5
    scheme: str = "auto"
    dt: float | None = None
    time_steps_per_window: int = 16
    picard_tol: float = 1e-10
    picard_max_iters: int = 15
    window_mode: str = "continuation"  # or "contraction" / "adaptive"
    max_window: float | None = None
    seed_mode: str = "homogeneous"  # or "initial"
    blowup_ceiling: float = 1e12
    max_halvings: int = 10
    coupled_outer_tol: float = 1e-8
    coupled_outer_max: int = 12

    def __post_init__(self):
        if self.window_mode not in ("continuation", "contraction", "adaptive"):
            raise ValueError(f"unknown window_mode {self.window_mode!r}")
        if self.seed_mode not in ("homogeneous", "initial"):
            raise ValueError(f"unknown seed_mode {self.seed_mode!r}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive when given")
        if self.picard_tol <= 0 or self.picard_max_iters < 1:
            raise ValueError("picard_tol must be positive, picard_max_iters >= 1")
        if self.time_steps_per_window < 2:
            raise ValueError("time_steps_per_window must be at least 2")


@dataclass
class WindowRecord:
    t_start: float
    t_end: float
    iterations: int
    gaps: list[float]
    ratios: list[float]
    halvings: int = 0


@dataclass
class SolveResult:
    trajectory: SolutionTrajectory
    windows: list[WindowRecord]
    report: HypothesisReport
    apriori: dict

    @property
    def total_iterations(self) -> int:
        return sum(w.iterations for w in self.windows)

    @property
    def max_iterations(self) -> int:
        return max((w.iterations for w in self.windows), default=0)


@dataclass
class CoupledResult:
    trajectory: SolutionTrajectory
    fuel: TabulatedFuel
    outer_iterations: int
    u_gaps: list[float]
    y_gaps: list[float]
    last_solve: SolveResult


# ---------------------------------------------------------------------------
# single-window Picard iteration


def _solve_window(p, fuel: GriddedFuel, times: np.ndarray, phi_values: np.ndarray,
                  cfg: SolverConfig) -> tuple[np.ndarray, int, list[float], list[float]]:
    """Fixed point on one window; times are absolute lattice nodes."""
    dx = fuel.grid.dx
    K = times.size - 1
    props = build_propagators(p, fuel, times, cfg.theta, cfg.scheme)
    ys = fuel.sample(fuel.grid, times)
    half = 0.5 * np.diff(times)[:, None, None]
    block = steps_per_block(phi_values.size)

    hom = np.empty((K + 1,) + phi_values.shape)
    hom[0] = phi_values
    for k in range(K):
        hom[k + 1] = props[k].apply_values(hom[k])

    if cfg.seed_mode == "homogeneous":
        u = hom.copy()
    else:
        u = np.repeat(phi_values[None], K + 1, axis=0)

    def sweep(cur: np.ndarray) -> np.ndarray:
        f = np.empty_like(cur)
        for a in range(0, K + 1, block):
            f[a : a + block] = source_f(p, ys[a : a + block], cur[a : a + block])
        out = np.empty_like(cur)
        out[0] = phi_values
        acc = np.zeros_like(phi_values)
        for a in range(0, K, block):
            # the trapezoid terms (dt/2) f_k and (dt/2) f_{k+1} of a block of steps
            b = min(a + block, K)
            h = half[a:b]
            left = h * f[a:b]
            right = h * f[a + 1 : b + 1]
            for j, prop in enumerate(props[a:b]):
                acc = prop.apply_values(acc + left[j]) + right[j]
                out[a + j + 1] = acc
        out[1:] += hom[1:]
        return out

    gaps: list[float] = []
    for it in range(1, cfg.picard_max_iters + 1):
        new = sweep(u)
        sup_new = float(np.max(layer_l2(new, dx)))
        if not math.isfinite(sup_new) or sup_new > cfg.blowup_ceiling:
            raise BlowUpError(
                f"iterate blew up on [{times[0]:.6g}, {times[-1]:.6g}] "
                f"(sweep {it}, sup {sup_new:.3g})"
            )
        gap = float(np.max(layer_l2(new - u, dx)))
        gaps.append(gap)
        u = new
        if gap <= cfg.picard_tol * (1.0 + sup_new):
            ratios = [gaps[j + 1] / gaps[j] for j in range(len(gaps) - 1) if gaps[j] > 0]
            return u, it, gaps, ratios
        if (cfg.window_mode == "adaptive" and len(gaps) >= 3
                and gaps[-1] > gaps[-2] > gaps[-3]):
            raise PicardDivergenceError(
                f"gaps grew over three consecutive sweeps on "
                f"[{times[0]:.6g}, {times[-1]:.6g}]; last gap {gap:.3e}"
            )
    raise PicardDivergenceError(
        f"no contraction to tol {cfg.picard_tol:.1e} in {cfg.picard_max_iters} sweeps "
        f"on [{times[0]:.6g}, {times[-1]:.6g}]; last gap {gaps[-1]:.3e}"
    )


# ---------------------------------------------------------------------------
# window rules


def _continuation_eps(p, fuel: GriddedFuel, t0: float, phi_norm: float,
                      beta: float, T: float) -> float:
    """Certified continuation window at t0 for a state of the given norm.

    continuation_epsilon with kappa on the ball of radius R(t0) and mu taken
    as sup_t ||f(t, 0)|| over the next unit of time.  A zero state norm is
    replaced by 1, which keeps a vanishing state from collapsing the window
    to zero while still bounding the contraction factor by 1/2.
    """
    span = (t0, min(t0 + 1.0, T))
    ref = phi_norm if phi_norm > 0.0 else 1.0
    R = continuation_radius(t0, ref, beta)
    kap = lipschitz_kappa(p, fuel, R, span)
    mu0 = bound_mu(p, fuel, 0.0, span)
    return continuation_epsilon(t0, ref, kap, mu0, beta)


# ---------------------------------------------------------------------------
# global solve


def _apriori_check(trajectory: SolutionTrajectory, phi_norm: float,
                   report: HypothesisReport, p, fuel: GriddedFuel, T: float) -> dict:
    """Growth-bound consistency: sup||u|| <= e^{bT}(||phi|| + mu T)e^{k e^{bT} T}."""
    observed = trajectory.sup_norm()
    kappa, mu, rho = report.kappa, report.mu, report.rho
    if observed > rho:
        # enlarge the ball so the Lipschitz constant covers the whole run
        rho = 2.0 * observed
        kappa = lipschitz_kappa(p, fuel, rho, (0.0, T))
        mu = bound_mu(p, fuel, rho, (0.0, T))
    grow = math.exp(report.beta * T)
    bound = grow * (phi_norm + mu * T) * math.exp(kappa * grow * T)
    return {
        "observed": observed,
        "bound": bound,
        "ok": bool(observed <= bound * (1.0 + APRIORI_SLACK)),
        "kappa": kappa,
        "mu": mu,
        "beta": report.beta,
        "rho": rho,
    }


def solve_global(problem: Problem, T: float, cfg: SolverConfig | None = None, *,
                 report: HypothesisReport | None = None) -> SolveResult:
    """March [0, T] window by window; audit first, a-priori check last."""
    cfg = cfg or SolverConfig()
    if T <= 0:
        raise ValueError("T must be positive")
    if report is None:
        report = audit_problem(problem, T, theta=cfg.theta, scheme=cfg.scheme)
    if not report.ok:
        raise AuditError(report)

    p = problem.params
    fuel = GriddedFuel(problem.fuel, problem.grid)
    phi_norm0 = l2_norm(problem.phi)

    lattice = None
    if cfg.dt is not None:
        total = int(round(T / cfg.dt))
        if total < 1 or abs(total * cfg.dt - T) > 1e-9 * max(1.0, abs(T)):
            raise ValueError("T must be a whole number of dt steps")
        lattice = cfg.dt * np.arange(total + 1)

    all_times = [np.array([0.0]) if lattice is None else lattice[:1]]
    all_values = [problem.phi.values[None].copy()]
    windows: list[WindowRecord] = []
    state = problem.phi.values.copy()
    k0 = 0
    t0 = 0.0
    max_windows = 100000

    while True:
        remaining = (T - t0) if lattice is None else (lattice[-1] - lattice[k0])
        if remaining <= (0.0 if lattice is not None else 1e-12 * max(1.0, T)):
            break
        if len(windows) >= max_windows:
            raise SolverError("window budget exhausted; windows are shrinking too fast")

        phi_norm = float(np.max(layer_l2(state, problem.grid.dx)))
        if cfg.window_mode == "continuation":
            w = _continuation_eps(p, fuel, t0, phi_norm, report.beta, T)
        elif cfg.window_mode == "contraction":
            w = report.T_prime
        else:
            # adaptive: no certified size; take the span and halve on failure
            w = remaining
        if cfg.max_window is not None:
            w = min(w, cfg.max_window)
        w = min(w, remaining)

        if lattice is not None:
            steps_left = lattice.size - 1 - k0
            n_sub = min(steps_left, max(1, int(math.floor(w / cfg.dt * (1.0 + 1e-12)))))
        else:
            n_sub = cfg.time_steps_per_window

        halvings = 0
        while True:
            if lattice is not None:
                times = lattice[k0 : k0 + n_sub + 1]
            else:
                times = t0 + (w / n_sub) * np.arange(n_sub + 1)
            try:
                vals, iters, gaps, ratios = _solve_window(p, fuel, times, state, cfg)
                break
            except PicardDivergenceError:
                if halvings >= cfg.max_halvings:
                    raise
                if lattice is not None:
                    if n_sub == 1:
                        raise
                    n_sub = max(1, n_sub // 2)
                else:
                    w *= 0.5
                halvings += 1

        windows.append(WindowRecord(float(times[0]), float(times[-1]), iters,
                                    gaps, ratios, halvings))
        all_times.append(times[1:])
        all_values.append(vals[1:])
        state = vals[-1]
        if lattice is not None:
            k0 += n_sub
        else:
            t0 = float(times[-1])

    trajectory = SolutionTrajectory(
        np.concatenate(all_times), np.concatenate(all_values), problem.grid
    )
    apriori = _apriori_check(trajectory, phi_norm0, report, p, fuel, T)
    if not apriori["ok"]:
        msg = (f"sup norm {apriori['observed']:.6g} exceeds the growth bound "
               f"{apriori['bound']:.6g}")
        if cfg.window_mode != "adaptive":
            raise AprioriViolationError(msg)
        warnings.warn(msg, stacklevel=2)
    return SolveResult(trajectory, windows, report, apriori)


# ---------------------------------------------------------------------------
# coupled fuel


def solve_coupled(problem: Problem, T: float, cfg: SolverConfig | None = None
                  ) -> CoupledResult:
    """Alternate frozen-fuel temperature solves with exact fuel ODE restepping.

    The fuel table lives on the dt lattice (cfg.dt is required); each step of
    the restep uses the midpoint temperature (u_k + u_{k+1})/2, so the fuel is
    nonincreasing in time and stays in [0, y0] by construction.
    """
    cfg = cfg or SolverConfig()
    if cfg.dt is None:
        raise ValueError("coupled runs need cfg.dt to pin the fuel lattice")
    if T <= 0:
        raise ValueError("T must be positive")

    p = problem.params
    total = int(round(T / cfg.dt))
    if total < 1 or abs(total * cfg.dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("T must be a whole number of dt steps")
    lattice = cfg.dt * np.arange(total + 1)

    y0 = problem.fuel.sample(problem.grid, 0.0)
    table = np.repeat(y0[None], total + 1, axis=0)

    prev_traj = None
    u_gaps: list[float] = []
    y_gaps: list[float] = []
    for outer in range(1, cfg.coupled_outer_max + 1):
        frozen = replace(problem, fuel=TabulatedFuel(lattice.copy(), table.copy()))
        res = solve_global(frozen, T, cfg)
        traj = res.trajectory
        if not np.array_equal(traj.times, lattice):
            raise SolverError("temperature lattice drifted off the fuel lattice")

        new_table = fuel_step(y0, traj.values, p, cfg.dt)
        dy = float(np.max(np.abs(new_table - table)))
        table = new_table
        y_gaps.append(dy)

        du = math.inf if prev_traj is None else sup_metric(traj, prev_traj)
        u_gaps.append(du)
        prev_traj = traj

        tol = cfg.coupled_outer_tol
        if dy <= tol or du <= tol * (1.0 + traj.sup_norm()):
            return CoupledResult(traj, TabulatedFuel(lattice, table), outer,
                                 u_gaps, y_gaps, res)
    raise PicardDivergenceError(
        f"coupled outer iteration did not settle in {cfg.coupled_outer_max} passes "
        f"(last du {u_gaps[-1]:.3e}, dy {y_gaps[-1]:.3e})"
    )
