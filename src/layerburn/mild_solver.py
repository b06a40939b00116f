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
factor by 1/2, so a window's first Picard gap fixes its Banach sweep budget
(_sweep_budget); a window that spends it is halved and retried, at most
MAX_HALVINGS times.  Every global solve is audited first and checked
against the a-priori growth bound afterwards, and a violation raises
AprioriViolationError; runaway iterates trip the blow-up guard instead of
overflowing silently.

A global solve allocates its (K+1, n, m) trajectory once, or runs in the
guess it is given, and every window, a retry after a halving included,
solves in place in its slice of it.  A
window's step operators come from one batched build_propagators call and its
fuel from one sample call; a time-invariant fuel's sample is a read-only
broadcast of one field, and its operators are factored once per distinct
step length.  Each sweep runs the trapezoid recursion above
once, with evolution.duhamel_blocks from I_0 = phi instead of 0: by linearity
that carries U(t_k, t0) phi and the integral in one recursion.  It runs a
block of steps at a time: the block's source comes from the old iterate's
rows, the block's sup norm and Picard gap are reduced, and the new rows
replace the old ones.  No array the size of the window's source, successor
or gap exists, and the iterates are bitwise those of a per-step loop.

Each window's first Picard iterate is its seed: the homogeneous evolution
U(t_k, t0) phi of a cold window, written into its slice, or the rows already
in the slice of the trajectory passed to solve_global as `guess` (a warm
start, solved in that array).  The Duhamel fixed point is unique, so the
seed only changes how many sweeps a window takes, not where it converges (to
within picard_tol); a warm window that is halved therefore retries from the
rows its failed attempt left.  A gap ratio above the certified 1/2 is
counted as a ratio violation (SolveResult.ratio_violations).

Coupled fuel runs alternate: freeze the fuel table, solve for temperature,
restep the fuel ODE through the new temperatures, repeat until neither field
moves.  The restep rewrites the table in place, one fuel_step call per block
of steps.  Each pass after the first runs in the previous pass's trajectory,
so a run holds one trajectory and one table; the pass's outer gap is the
sup distance its solve moved that trajectory, which solve_global reduces
window by window against a copy of the window's rows (track_move).  A pass
solves only as far as its frozen fuel deserves: to FORCING times the fuel
change of the restep before it, never below picard_tol, and the run ends only
after a pass solved to picard_tol itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .evolution import GriddedFuel, build_propagators, check_theta, duhamel_blocks, evolve
from .grid import (SolutionTrajectory, l2_norm, layer_l2, steps_per_block, sup_metric,
                   time_lattice)
from .hypothesis import (
    GrowthBoundError,
    HypothesisReport,
    audit_problem,
    continuation_epsilon,
    continuation_radius,
    lipschitz_kappa,
)
from .model import Problem, TabulatedFuel, fuel_step, source_f


WINDOW_MODES = ("continuation", "contraction")  # the rules of SolverConfig.window_mode
# Relative slack of the a-priori check: observed <= bound * (1 + APRIORI_SLACK).
APRIORI_SLACK = 1e-8
# Halvings of one window's step count before PicardDivergenceError propagates.
MAX_HALVINGS = 10
# Forcing term of a coupled pass: it solves to FORCING times the fuel change of
# the restep before it, and never below picard_tol.
FORCING = 1e-3
# An iterate whose sup norm exceeds BLOWUP_CEILING raises BlowUpError.
BLOWUP_CEILING = 1e12
# A coupled run settles at OUTER_TOL (solve_coupled) within MAX_PASSES passes.
OUTER_TOL = 1e-8
MAX_PASSES = 12


class SolverError(RuntimeError):
    """Base class for runtime solve failures (exit code 3 territory)."""


class BlowUpError(SolverError):
    """An iterate left the finite range or crossed the blow-up ceiling."""


class PicardDivergenceError(SolverError):
    """Picard iteration failed to contract within the iteration budget."""


class AprioriViolationError(SolverError):
    """A finished run violated the a-priori growth bound."""


class WindowBelowStepError(SolverError):
    """The certified window is shorter than one lattice step."""


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
    [1/2, 1], the A-stable range of the theta-scheme.  window_mode picks
    one of the two certified window rules, "continuation" (epsilon(t0)) or
    "contraction" (T'); a certified window shorter than dt raises
    WindowBelowStepError.  A run whose trajectory
    exceeds the a-priori growth bound always raises AprioriViolationError.
    picard_tol is the Picard tolerance of a solve_global call, and of the
    last pass of a coupled run; the earlier passes solve to a looser,
    forced tolerance (solve_coupled).  Each window's sweep budget follows
    from its certificate (_sweep_budget).
    """

    dt: float
    theta: float = 0.5
    scheme: str = "auto"
    picard_tol: float = 1e-10
    window_mode: str = "continuation"

    def __post_init__(self):
        if self.window_mode not in WINDOW_MODES:
            raise ValueError(f"unknown window_mode {self.window_mode!r}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        check_theta(self.theta)
        if not 0.0 < self.picard_tol < math.inf:
            raise ValueError(f"picard_tol must be positive and finite, got {self.picard_tol}")


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
    moved: float | None = None  # sup distance from the guess, if tracked (solve_global)

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

    @property
    def ratio_violations(self) -> int:
        """Picard gap ratios above the certified contraction factor 1/2."""
        return sum(r > 0.5 for w in self.windows for r in w.ratios)


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
    pass_picard_tols: list[float]  # Picard tolerance each pass solved to
    ratio_violations: int  # Picard gap ratios above 1/2, summed over the passes


# ---------------------------------------------------------------------------
# single-window Picard iteration


def _sweep_budget(first_gap: float, tol: float) -> int:
    """Banach's sweep count for a window contracting by 1/2, from its first gap,
    plus one sweep for tol = picard_tol*(1 + sup) drifting with the sup."""
    return 1 if first_gap <= tol else 2 + math.ceil(math.log2(first_gap / tol))


def _solve_window(p, fuel: GriddedFuel, times: np.ndarray, u: np.ndarray,
                  cfg: SolverConfig, warm: bool) -> tuple[int, list[float], list[float]]:
    """Fixed point on one window, solved in place in u; times are absolute lattice nodes.

    u[0] holds the window state and is not written.  A warm window's first
    iterate is the rows u already holds past u[0]; a cold window overwrites
    them with the homogeneous evolution first, so rows left by an earlier
    attempt on the same slice do not reach its iterates.
    """
    dx = fuel.grid.dx
    props = build_propagators(p, fuel, times, cfg.theta, cfg.scheme)
    ys = fuel.sample(times)

    if not warm:
        evolve(props, u[0], out=u)

    def source(lo, hi):
        return source_f(p, ys[lo:hi], u[lo:hi])

    sup0 = np.max(layer_l2(u[0], dx))
    gaps: list[float] = []
    for it in itertools.count(1):
        # each block of the successor replaces the old rows once they have
        # given their source and their share of the Picard gap
        sups = [sup0]
        block_gaps = []
        for a, rows in duhamel_blocks(props, times, source, u[0]):
            old = u[a + 1 : a + 1 + len(rows)]
            sups.append(np.max(layer_l2(rows, dx)))
            old -= rows
            block_gaps.append(np.max(layer_l2(old, dx)))
            old[...] = rows
        sup_new = float(np.max(sups))
        if not math.isfinite(sup_new) or sup_new > BLOWUP_CEILING:
            raise BlowUpError(
                f"iterate blew up on [{times[0]:.6g}, {times[-1]:.6g}] "
                f"(sweep {it}, sup {sup_new:.3g})"
            )
        gap = float(np.max(block_gaps))
        gaps.append(gap)
        tol = cfg.picard_tol * (1.0 + sup_new)
        if gap <= tol:
            ratios = [gaps[j + 1] / gaps[j] for j in range(len(gaps) - 1) if gaps[j] > 0]
            return it, gaps, ratios
        if it == 1:
            budget = _sweep_budget(gap, tol)
        if it >= budget:
            raise PicardDivergenceError(
                f"no contraction to tol {cfg.picard_tol:.1e} in {budget} sweeps "
                f"on [{times[0]:.6g}, {times[-1]:.6g}]; last gap {gap:.3e}"
            )


# ---------------------------------------------------------------------------
# window rules


def _continuation_eps(p, fuel: GriddedFuel, t0: float, phi_norm: float,
                      beta: float, T: float) -> float:
    """Certified continuation window at t0 for a state of the given norm.

    continuation_epsilon with kappa on the ball of radius R(t0) and mu taken
    as mu0 = sup_t ||f(t, 0)|| over the next unit of time.  A zero state norm is
    replaced by 1, which keeps a vanishing state from collapsing the window
    to zero while still bounding the contraction factor by 1/2.  A radius
    beyond the float range certifies no window: GrowthBoundError.
    """
    span = (t0, min(t0 + 1.0, T))
    ref = phi_norm if phi_norm > 0.0 else 1.0
    R = continuation_radius(t0, ref, beta)
    if R == math.inf:
        raise GrowthBoundError(
            f"no continuation window at t0 = {t0:.6g}: the radius 2*||u||*e^(beta*(t0+1)) "
            f"overflows (||u|| = {ref:.6g}, beta = {beta:.6g})")
    kap, mu0 = lipschitz_kappa(p, fuel, R, span)
    return continuation_epsilon(t0, ref, kap, mu0, beta)


# ---------------------------------------------------------------------------
# global solve


def _apriori_check(trajectory: SolutionTrajectory, phi_norm: float,
                   report: HypothesisReport, p, fuel: GriddedFuel, T: float) -> dict:
    """Growth-bound consistency: sup||u|| <= e^{bT}(||phi|| + mu T)e^{k e^{bT} T}.

    A bound beyond the float range is inf, and the check it makes is vacuous.
    """
    observed = trajectory.sup_norm()
    kappa, mu, rho = report.kappa, report.mu, report.rho
    if observed > rho:
        # enlarge the ball so the Lipschitz constant covers the whole run
        rho = 2.0 * observed
        kappa, mu0 = lipschitz_kappa(p, fuel, rho, (0.0, T))
        mu = kappa * rho + mu0
    try:
        grow = math.exp(report.beta * T)
        bound = grow * (phi_norm + mu * T) * math.exp(kappa * grow * T)
    except OverflowError:  # the bound exceeds the float range: the check is vacuous
        bound = math.inf
    return {
        "observed": observed,
        "bound": bound,
        "ok": bool(observed <= bound * (1.0 + APRIORI_SLACK)),
        "kappa": kappa,
        "mu": mu,
        "beta": report.beta,
        "rho": rho,
    }


def window_steps(w: float, t0: float, dt: float) -> int:
    """The whole steps of length dt in a certified window w at t0, up to the
    rounding the window sizing forgives; WindowBelowStepError when none."""
    steps = w / dt * (1.0 + 1e-12)
    if not steps >= 1.0:
        raise WindowBelowStepError(
            f"certified window {w:.6g} at t0 = {t0:.6g} is shorter than the step "
            f"dt = {dt:.6g}; a dt of at most {w:.6g} certifies this window only, "
            "and T must stay a whole number of steps")
    return math.floor(steps)


def solve_global(problem: Problem, T: float, cfg: SolverConfig, *,
                 report: HypothesisReport | None = None,
                 guess: np.ndarray | None = None,
                 track_move: bool = False) -> SolveResult:
    """March [0, T] window by window; audit first, a-priori check last.

    guess is an optional (K+1, n, m) trajectory on the cfg.dt lattice, and
    the solve runs in it: row 0 becomes phi, each window starts its Picard
    iteration from the rows the guess holds on its nodes instead of the
    homogeneous evolution, and the returned trajectory's values are the
    guess itself.  A warm window that is halved retries from the rows its
    failed attempt left.  A guess that is not on that lattice, or that the
    solve cannot write in place (read-only, not C-contiguous or not
    float64), is a caller bug and raises SolverError.

    With track_move, a warm solve also returns SolveResult.moved, the
    sup_metric distance between its result and the guess as it was given,
    bit for bit.  Each window copies its guess rows before it solves and
    reduces its converged rows against that copy; a halved window puts the
    copy back on the rows past its final span, so the next window starts
    from, and is measured against, the guess's own rows.
    """
    lattice = time_lattice(T, cfg.dt)
    if report is None:
        report = audit_problem(problem, T, theta=cfg.theta, scheme=cfg.scheme)
    if not report.ok:
        raise AuditError(report)

    p = problem.params
    fuel = GriddedFuel(problem.fuel, problem.grid)
    phi_norm0 = l2_norm(problem.phi, problem.grid.dx)
    K = lattice.size - 1
    shape = (K + 1,) + problem.phi.shape
    if guess is not None:
        if guess.shape != shape:
            raise SolverError(
                f"Picard guess has shape {guess.shape}, the dt lattice needs {shape}")
        if not (guess.dtype == np.float64 and guess.flags.c_contiguous
                and guess.flags.writeable):
            raise SolverError("Picard guess must be a writeable C-contiguous float64 "
                              "array: the solve runs in it")

    # every window solves in place in its slice of one trajectory buffer, the
    # guess when there is one; row k0 of a window is the last row of the
    # window before it
    values = np.empty(shape) if guess is None else guess
    track = track_move and guess is not None
    moved = float(np.max(layer_l2(values[0] - problem.phi, problem.grid.dx))) if track else None
    values[0] = problem.phi
    windows: list[WindowRecord] = []
    k0 = 0
    while k0 < K:
        t0 = float(lattice[k0])
        phi_norm = float(np.max(layer_l2(values[k0], problem.grid.dx)))
        if cfg.window_mode == "continuation":
            w = _continuation_eps(p, fuel, t0, phi_norm, report.beta, T)
        else:
            w = report.T_prime
        # every window advances at least one step, so at most K windows
        n_sub = min(K - k0, window_steps(w, t0, cfg.dt))
        if track:
            saved = values[k0 + 1 : k0 + 1 + n_sub].copy()

        halvings = 0
        while True:
            span = slice(k0, k0 + n_sub + 1)
            times = lattice[span]
            try:
                iters, gaps, ratios = _solve_window(p, fuel, times, values[span], cfg,
                                                    warm=guess is not None)
                break
            except PicardDivergenceError:
                if halvings >= MAX_HALVINGS or n_sub == 1:
                    raise
                n_sub //= 2
                halvings += 1

        windows.append(WindowRecord(float(times[0]), float(times[-1]), iters,
                                    gaps, ratios, halvings))
        if track:
            # the rows a halving gave up return to the guess, and the solved
            # rows are measured against their copy
            values[k0 + 1 + n_sub : k0 + 1 + len(saved)] = saved[n_sub:]
            span = slice(k0 + 1, k0 + 1 + n_sub)
            moved = max(moved, sup_metric(
                SolutionTrajectory(lattice[span], values[span], problem.grid),
                SolutionTrajectory(lattice[span], saved[:n_sub], problem.grid)))
        k0 += n_sub

    trajectory = SolutionTrajectory(lattice, values, problem.grid)
    apriori = _apriori_check(trajectory, phi_norm0, report, p, fuel, T)
    if not apriori["ok"]:
        raise AprioriViolationError(
            f"sup norm {apriori['observed']:.6g} exceeds the growth bound "
            f"{apriori['bound']:.6g}")
    return SolveResult(trajectory, windows, report, apriori, moved)


# ---------------------------------------------------------------------------
# coupled fuel


def solve_coupled(problem: Problem, T: float, cfg: SolverConfig) -> CoupledResult:
    """Alternate frozen-fuel temperature solves with exact fuel ODE restepping.

    The fuel table lives on the temperature solves' dt lattice; each step of
    the restep uses the midpoint temperature (u_k + u_{k+1})/2, so the fuel is
    nonincreasing in time and stays in [0, y0] by construction.  Pass k >= 2
    runs in pass k-1's trajectory, which already lies within the outer gap of
    its fixed point; that gap du is the distance the solve moved it,
    SolveResult.moved of a track_move solve.

    A pass's frozen fuel is only as good as the restep before it, so the pass
    solves to an inexact Picard tolerance (Eisenstat & Walker, SIAM J. Sci.
    Comput. 17, 1996): FORCING times that restep's fuel change, max(y0) before
    the first pass, and never below picard_tol.  The loop stops only after a
    pass solved at picard_tol.
    """
    p = problem.params
    lattice = time_lattice(T, cfg.dt)
    y0 = problem.fuel.sample(problem.grid, 0.0)
    table = np.repeat(y0[None], lattice.size, axis=0)
    block = steps_per_block(y0.size)

    guess = None
    dy = float(np.max(y0))
    u_gaps: list[float] = []
    y_gaps: list[float] = []
    pass_iterations: list[int] = []
    pass_worst_ratios: list[float] = []
    pass_picard_tols: list[float] = []
    ratio_violations = 0
    for outer in range(1, MAX_PASSES + 1):
        frozen = replace(problem, fuel=TabulatedFuel(lattice, table))
        # the pass runs in the previous pass's trajectory and measures how far
        # it moved it
        pass_tol = max(cfg.picard_tol, FORCING * dy)
        res = solve_global(frozen, T, replace(cfg, picard_tol=pass_tol), guess=guess,
                           track_move=True)
        pass_iterations.append(res.total_iterations)
        pass_worst_ratios.append(res.worst_ratio)
        pass_picard_tols.append(pass_tol)
        ratio_violations += res.ratio_violations
        traj = res.trajectory

        # restep the table in place a block of steps at a time: each block's
        # running product starts from the new row before it, and the block's
        # change is taken before it replaces the old rows
        block_gaps = []
        for a in range(0, lattice.size - 1, block):
            rows = fuel_step(table[a], traj.values[a : a + block + 1], p, cfg.dt)[1:]
            old = table[a + 1 : a + 1 + len(rows)]
            block_gaps.append(np.max(np.abs(rows - old)))
            old[...] = rows
        dy = float(np.max(block_gaps))
        y_gaps.append(dy)

        du = math.inf if guess is None else res.moved
        u_gaps.append(du)
        guess = traj.values

        if pass_tol == cfg.picard_tol and (
                dy <= OUTER_TOL or du <= OUTER_TOL * (1.0 + traj.sup_norm())):
            return CoupledResult(traj, TabulatedFuel(lattice, table), outer,
                                 u_gaps, y_gaps, res, pass_iterations,
                                 pass_worst_ratios, pass_picard_tols, ratio_violations)
    raise PicardDivergenceError(
        f"coupled outer iteration did not settle in {MAX_PASSES} passes "
        f"(last du {u_gaps[-1]:.3e}, dy {y_gaps[-1]:.3e})"
    )
