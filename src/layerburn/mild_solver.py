"""Fixed-point solver for the integral (Duhamel) form of the layered model.

The solution on a window [t0, t0 + w] is the fixed point of

    (Phi u)(t) = U(t, t0) phi + integral_{t0}^{t} U(t, s) f(s, u(s)) ds,

discretized on the uniform step lattice dt*k of [0, T] (grid.time_lattice):
the integral is accumulated by the propagated trapezoid rule

    I_{k+1} = U_k [ I_k + (dt/2) f(t_k, u_k) ] + (dt/2) f(t_{k+1}, u_{k+1}),

so the converged iterate satisfies the one-step recursion

    u_{k+1} = U_k u_k + (dt/2) (U_k f_k + f_{k+1}),

which is independent of how [0, T] is split into windows.  Global solves
chain windows of whole lattice steps, each starting at a lattice node t0 and
sized by one of two certified rules (the continuation window epsilon(t0) or
the fixed contraction step T'), both of which bound the Picard contraction
factor by 1/2; a third, adaptive mode ignores the certified constants, starts
from the whole remaining span, and halves its step count on observed
divergence instead.  Every global solve is audited first and checked against
the a-priori growth bound afterwards (a warning rather than a failure in
adaptive mode); runaway iterates trip the blow-up guard instead of
overflowing silently.

A window's step operators come from one batched build_propagators call and
its fuel from one sample call.  Each sweep evaluates f along the window with
evolution.source_along and runs the trapezoid recursion above once, with
evolution.duhamel from I_0 = phi instead of 0: by linearity that carries
U(t_k, t0) phi and the integral in one array, one step at a time, so the
iterates are bitwise those of a per-step loop.

Each window's first Picard iterate is its seed: by default the one that
SolverConfig.seed_mode names, or a slice of the trajectory passed to
solve_global as `guess` (a warm start).  Only the cold "homogeneous" seed
computes U(t_k, t0) phi on its own.  The Duhamel fixed point is unique, so
the seed only changes how many sweeps a window takes, not where it converges
(to within picard_tol).

Coupled fuel runs alternate: freeze the fuel table, solve for temperature,
restep the fuel ODE through the new temperatures (one fuel_step call over the
whole lattice), repeat until neither field moves.  Each pass after the first
starts from the previous pass's trajectory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .evolution import (GriddedFuel, build_propagators, check_theta, duhamel, evolve,
                        source_along)
from .grid import SolutionTrajectory, l2_norm, layer_l2, sup_metric, time_lattice
from .hypothesis import (
    HypothesisReport,
    audit_problem,
    bound_mu,
    continuation_epsilon,
    continuation_radius,
    lipschitz_kappa,
)
from .model import Problem, TabulatedFuel, fuel_step


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

    dt has no default: it fixes the step lattice of every solve, T must be a
    whole number of its steps, and so is every window.  theta lies in
    [1/2, 1], the A-stable range of the theta-scheme.  seed_mode picks the
    cold-start Picard guess: the homogeneous evolution of the window state,
    or that state held constant in time.  A trajectory passed to solve_global
    as `guess` takes its place in every window (the warm start of coupled
    passes and oracle-ladder rungs), so seed_mode only matters when no guess
    is given.  window_mode "continuation" and "contraction" use the two
    certified window rules; "adaptive" ignores the certified constants,
    starts from the whole remaining span, halves on divergence (detected
    early by gap growth over three consecutive sweeps), and demotes the
    a-priori check to a warning; the certified modes raise.
    """

    dt: float
    theta: float = 0.5
    scheme: str = "auto"
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
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        check_theta(self.theta)
        for name in ("picard_tol", "coupled_outer_tol", "blowup_ceiling", "max_window"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.picard_max_iters < 1:
            raise ValueError("picard_max_iters must be at least 1")


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

    @property
    def worst_ratio(self) -> float:
        """Largest observed Picard gap ratio over all windows, 0 if none."""
        return max((r for w in self.windows for r in w.ratios), default=0.0)


@dataclass
class CoupledResult:
    trajectory: SolutionTrajectory
    fuel: TabulatedFuel
    outer_iterations: int
    u_gaps: list[float]
    y_gaps: list[float]
    last_solve: SolveResult
    pass_iterations: list[int]  # total Picard sweeps of each outer pass
    pass_worst_ratios: list[float]  # largest gap ratio of each pass, 0 if none


# ---------------------------------------------------------------------------
# single-window Picard iteration


def _solve_window(p, fuel: GriddedFuel, times: np.ndarray, phi_values: np.ndarray,
                  cfg: SolverConfig, guess: np.ndarray | None
                  ) -> tuple[np.ndarray, int, list[float], list[float]]:
    """Fixed point on one window; times are absolute lattice nodes.

    guess, when given, is the first iterate on those nodes (its row 0 is
    replaced by phi_values); otherwise cfg.seed_mode picks it.
    """
    dx = fuel.grid.dx
    props = build_propagators(p, fuel, times, cfg.theta, cfg.scheme)
    ys = fuel.sample(times)

    if guess is not None:
        u = guess.copy()
        u[0] = phi_values
    elif cfg.seed_mode == "homogeneous":
        u = evolve(props, phi_values)
    else:
        u = np.repeat(phi_values[None], times.size, axis=0)

    gaps: list[float] = []
    for it in range(1, cfg.picard_max_iters + 1):
        new = duhamel(props, times, source_along(p, ys, u), phi_values)
        sup_new = float(np.max(layer_l2(new, dx)))
        if not math.isfinite(sup_new) or sup_new > cfg.blowup_ceiling:
            raise BlowUpError(
                f"iterate blew up on [{times[0]:.6g}, {times[-1]:.6g}] "
                f"(sweep {it}, sup {sup_new:.3g})"
            )
        u -= new
        gap = float(np.max(layer_l2(u, dx)))
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


def solve_global(problem: Problem, T: float, cfg: SolverConfig, *,
                 report: HypothesisReport | None = None,
                 guess: np.ndarray | None = None) -> SolveResult:
    """March [0, T] window by window; audit first, a-priori check last.

    guess is an optional (K+1, n, m) trajectory on the cfg.dt lattice; each
    window starts its Picard iteration from the guess's rows on its nodes
    instead of the cfg.seed_mode seed.  A guess that is not on that lattice
    is a caller bug and raises SolverError.
    """
    lattice = time_lattice(T, cfg.dt)
    if report is None:
        report = audit_problem(problem, T, theta=cfg.theta, scheme=cfg.scheme)
    if not report.ok:
        raise AuditError(report)

    p = problem.params
    fuel = GriddedFuel(problem.fuel, problem.grid)
    phi_norm0 = l2_norm(problem.phi)
    K = lattice.size - 1
    shape = (K + 1,) + problem.phi.values.shape
    if guess is not None and guess.shape != shape:
        raise SolverError(f"Picard guess has shape {guess.shape}, the dt lattice needs {shape}")

    # each window's states stay in its own array until the final concatenate,
    # so no full-trajectory buffer is held while the windows are solved
    chunks = [problem.phi.values[None]]
    state = problem.phi.values
    windows: list[WindowRecord] = []
    k0 = 0
    while k0 < K:
        t0 = float(lattice[k0])
        remaining = lattice[-1] - lattice[k0]
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
        # every window advances at least one step, so at most K windows
        n_sub = min(K - k0, max(1, int(math.floor(w / cfg.dt * (1.0 + 1e-12)))))

        halvings = 0
        while True:
            times = lattice[k0 : k0 + n_sub + 1]
            seed = None if guess is None else guess[k0 : k0 + n_sub + 1]
            try:
                vals, iters, gaps, ratios = _solve_window(p, fuel, times, state, cfg, seed)
                break
            except PicardDivergenceError:
                if halvings >= cfg.max_halvings or n_sub == 1:
                    raise
                n_sub //= 2
                halvings += 1

        windows.append(WindowRecord(float(times[0]), float(times[-1]), iters,
                                    gaps, ratios, halvings))
        chunks.append(vals[1:])
        state = vals[-1]
        k0 += n_sub

    trajectory = SolutionTrajectory(lattice, np.concatenate(chunks), problem.grid)
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


def solve_coupled(problem: Problem, T: float, cfg: SolverConfig) -> CoupledResult:
    """Alternate frozen-fuel temperature solves with exact fuel ODE restepping.

    The fuel table lives on the temperature solves' dt lattice; each step of
    the restep uses the midpoint temperature (u_k + u_{k+1})/2, so the fuel is
    nonincreasing in time and stays in [0, y0] by construction.  Pass k >= 2
    seeds its solve with pass k-1's trajectory, which already lies within the
    outer gap of its fixed point.
    """
    p = problem.params
    lattice = time_lattice(T, cfg.dt)
    y0 = problem.fuel.sample(problem.grid, 0.0)
    table = np.repeat(y0[None], lattice.size, axis=0)

    prev_traj = None
    u_gaps: list[float] = []
    y_gaps: list[float] = []
    pass_iterations: list[int] = []
    pass_worst_ratios: list[float] = []
    for outer in range(1, cfg.coupled_outer_max + 1):
        frozen = replace(problem, fuel=TabulatedFuel(lattice.copy(), table.copy()))
        guess = None if prev_traj is None else prev_traj.values
        res = solve_global(frozen, T, cfg, guess=guess)
        pass_iterations.append(res.total_iterations)
        pass_worst_ratios.append(res.worst_ratio)
        traj = res.trajectory

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
                                 u_gaps, y_gaps, res, pass_iterations,
                                 pass_worst_ratios)
    raise PicardDivergenceError(
        f"coupled outer iteration did not settle in {cfg.coupled_outer_max} passes "
        f"(last du {u_gaps[-1]:.3e}, dy {y_gaps[-1]:.3e})"
    )
