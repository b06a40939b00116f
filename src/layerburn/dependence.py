"""Continuous-dependence studies: response of the solution to data changes.

A perturbation direction is applied to chosen data fields (coefficients,
exchange profiles, fuel, initial state) at a ladder of scales s_j = 2^{-j}.
For each scale the study measures the solution displacement

    delta_j = sup_t || u_j(t) - u(t) ||

and the four data-difference terms that drive it,

    d0 = sup_t || U_j(t,0) (phi_j - phi) ||
    d1 = sup_t || (U_j(t,0) - U(t,0)) phi ||
    d3 = sup_t || int_0^t U_j(t,s) [f_j(s, u(s)) - f(s, u(s))] ds ||
    d4 = sup_t || int_0^t (U_j(t,s) - U(t,s)) f(s, u(s)) ds ||

all evaluated along the unperturbed solution, so they are data terms, not
solutions of the perturbed problem.  The displacement obeys the Gronwall
closure delta_j <= (d0+d1+d3+d4) * (1 + T*c*e^{cT}) with c = 1 + e^{beta T};
halving s halves the data terms, so successive deltas should halve too until
they sink below the solver-noise floor.

The base-problem parts of those terms (the source f(s, u(s)) along the base
solution, U(t,0) phi and the base Duhamel sum) do not depend on the level, so
a study computes them once along the base lattice as (K+1, n, m) arrays; each
level then builds only its perturbed operators and marches four recursions
with them.  The arithmetic per node is unchanged, so the terms are bitwise
those of recomputing the base parts for every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .evolution import (
    GriddedFuel,
    build_propagators,
    generator_apply,
    generator_bands,
    steps_per_block,
)
from .grid import SolutionTrajectory, TemperatureField, layer_l2, sup_metric
from .mild_solver import (
    AuditError,
    BlowUpError,
    PicardDivergenceError,
    SolveResult,
    SolverConfig,
    solve_global,
)
from .model import PerturbedFuel, Problem, central_gradient, source_f

_FIELD_TARGETS = ("a", "b", "c", "d", "lam", "K", "A", "q", "qhat1", "qhat2")


@dataclass
class PerturbationSpec:
    """Named perturbation directions and the scale ladder to sweep.

    Directions are full-shape arrays for parameter fields ("a", "b", "c", "d",
    "lam", "K", "A", "q", "qhat1", "qhat2"), an (n, m) array for "fuel" or
    "phi", and a plain float for "u_e".  "c_x" is not a target: it is
    recomputed from the perturbed c so the pair stays consistent.
    """

    directions: dict
    levels: np.ndarray = field(default_factory=lambda: 2.0 ** -np.arange(9, dtype=float))

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if self.levels.size < 2 or np.any(self.levels <= 0):
            raise ValueError("need at least two positive perturbation levels")
        if not self.directions:
            raise ValueError("at least one perturbation direction is required")
        for name in self.directions:
            if name == "c_x":
                raise ValueError("perturb c, not c_x; the gradient is recomputed")
            if name not in _FIELD_TARGETS + ("fuel", "phi", "u_e"):
                raise ValueError(f"unknown perturbation target {name!r}")


def build_perturbed(problem: Problem, directions: dict, s: float) -> Problem:
    """Problem with each targeted field shifted by s times its direction."""
    p = problem.params
    fuel = problem.fuel
    phi = problem.phi
    updates = {}
    for name, dirn in directions.items():
        if name == "fuel":
            fuel = PerturbedFuel(problem.fuel, np.asarray(dirn, dtype=float), s)
        elif name == "phi":
            phi = TemperatureField(
                problem.phi.values + s * np.asarray(dirn, dtype=float), problem.grid
            )
        elif name == "u_e":
            updates["u_e"] = p.u_e + s * float(dirn)
        elif name == "c":
            c_new = p.c + s * np.asarray(dirn, dtype=float)
            updates["c"] = c_new
            updates["c_x"] = central_gradient(c_new, problem.grid.dx)
        elif name in _FIELD_TARGETS:
            updates[name] = getattr(p, name) + s * np.asarray(dirn, dtype=float)
        else:
            raise ValueError(f"unknown perturbation target {name!r}")
    params = replace(p, **updates) if updates else p
    return Problem(problem.grid, params, fuel, phi)


# ---------------------------------------------------------------------------
# data-difference terms along the base solution


def _base_terms(base_problem: Problem, base_traj: SolutionTrajectory,
                cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base-problem terms shared by every level, each (K+1, n, m) on the lattice.

    Returns the source f(t_k, u(t_k)) along the base solution, the homogeneous
    evolution U(t_k, 0) phi and the base Duhamel sum int_0^{t_k} U(t_k, s) f ds.
    """
    grid = base_problem.grid
    pb = base_problem.params
    fb = GriddedFuel(base_problem.fuel, grid)
    times = base_traj.times
    K = times.size - 1
    f = np.empty_like(base_traj.values)
    hom = np.empty_like(f)
    duhamel = np.empty_like(f)
    hom[0] = base_problem.phi.values
    duhamel[0] = 0.0
    block = steps_per_block(hom[0].size)
    for a in range(0, K + 1, block):
        f[a : a + block] = source_f(pb, fb.sample(grid, times[a : a + block]),
                                    base_traj.values[a : a + block])
    half = 0.5 * np.diff(times)[:, None, None]
    for a in range(0, K, block):
        b = min(a + block, K)
        h = half[a:b]
        left = h * f[a:b]
        right = h * f[a + 1 : b + 1]
        props = build_propagators(pb, fb, times[a : b + 1], cfg.theta, cfg.scheme)
        for j, prop in enumerate(props):
            hom[a + j + 1] = prop.apply_values(hom[a + j])
            duhamel[a + j + 1] = prop.apply_values(duhamel[a + j] + left[j]) + right[j]
    return f, hom, duhamel


def _difference_terms(base_problem: Problem, pert_problem: Problem,
                      base_traj: SolutionTrajectory, cfg: SolverConfig,
                      base_terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> dict:
    """d0, d1, d3, d4 accumulated on the base trajectory's time lattice.

    base_terms is what _base_terms returns for the same base problem and
    trajectory; only the perturbed operators and sums are computed here.
    """
    grid = base_problem.grid
    dx = grid.dx
    pj = pert_problem.params
    fj = GriddedFuel(pert_problem.fuel, grid)
    f, hb, acc_b = base_terms
    times = base_traj.times
    K = times.size - 1

    dphi = pert_problem.phi.values - base_problem.phi.values
    e0 = dphi.copy()
    hp = hb[0].copy()
    acc3 = np.zeros_like(hp)
    acc_p = np.zeros_like(hp)

    d0 = float(np.max(layer_l2(e0, dx)))
    d1 = 0.0
    d3 = 0.0
    d4 = 0.0
    half = 0.5 * np.diff(times)[:, None, None]
    block = steps_per_block(hp.size)
    for a in range(0, K, block):
        seg = times[a : a + block + 1]
        props_j = build_propagators(pj, fj, seg, cfg.theta, cfg.scheme)
        f_seg = f[a : a + block + 1]
        df = source_f(pj, fj.sample(grid, seg), base_traj.values[a : a + block + 1]) - f_seg
        # trapezoid terms (dt/2) g_k and (dt/2) g_{k+1} of the block's steps, g = f_j - f and f
        h = half[a : a + block]
        left3, right3 = h * df[:-1], h * df[1:]
        left_p, right_p = h * f_seg[:-1], h * f_seg[1:]
        for j, prop_j in enumerate(props_j):
            k = a + j
            e0 = prop_j.apply_values(e0)
            hp = prop_j.apply_values(hp)
            acc3 = prop_j.apply_values(acc3 + left3[j]) + right3[j]
            acc_p = prop_j.apply_values(acc_p + left_p[j]) + right_p[j]

            d0 = max(d0, float(np.max(layer_l2(e0, dx))))
            d1 = max(d1, float(np.max(layer_l2(hp - hb[k + 1], dx))))
            d3 = max(d3, float(np.max(layer_l2(acc3, dx))))
            d4 = max(d4, float(np.max(layer_l2(acc_p - acc_b[k + 1], dx))))
    total = d0 + d1 + d3 + d4
    return {"d0": d0, "d1": d1, "d3": d3, "d4": d4, "total": total}


def gronwall_factor(beta: float, T: float) -> float:
    """Closure constant (1 + T*c*e^{cT}) with c = 1 + e^{beta T}."""
    c = 1.0 + math.exp(beta * T)
    return 1.0 + T * c * math.exp(c * T)


# ---------------------------------------------------------------------------
# the study


@dataclass
class LevelResult:
    level: float
    delta: float
    terms: dict
    bound: float
    within_bound: bool
    above_floor: bool
    skipped: str | None = None


@dataclass
class DependenceStudy:
    base: SolveResult
    levels: list[LevelResult]
    ratios: list[float]
    crossover: int | None
    noise_floor: float

    @property
    def deltas(self) -> list[float]:
        return [lv.delta for lv in self.levels if lv.skipped is None]

    @property
    def decreasing(self) -> bool:
        ds = [lv.delta for lv in self.levels if lv.skipped is None and lv.above_floor]
        return all(b < a for a, b in zip(ds, ds[1:]))

    @property
    def all_within_bound(self) -> bool:
        return all(lv.within_bound for lv in self.levels
                   if lv.skipped is None and lv.above_floor)


def dependence_study(problem: Problem, T: float, spec: PerturbationSpec,
                     cfg: SolverConfig | None = None) -> DependenceStudy:
    """Sweep the perturbation ladder and compare responses against the bound.

    cfg.dt must be set: base and perturbed runs share one time lattice so the
    displacement sup runs over identical nodes.  Levels whose perturbed
    problem fails its audit (or whose solve diverges) are recorded as skipped
    rather than aborting the sweep.
    """
    cfg = cfg or SolverConfig()
    if cfg.dt is None:
        raise ValueError("dependence studies need cfg.dt for a shared lattice")
    base = solve_global(problem, T, cfg)
    beta = base.report.beta
    factor = gronwall_factor(beta, T)
    noise_floor = 100.0 * cfg.picard_tol * (1.0 + base.trajectory.sup_norm())

    base_terms = _base_terms(problem, base.trajectory, cfg)
    out: list[LevelResult] = []
    for s in spec.levels:
        pert = build_perturbed(problem, spec.directions, float(s))
        try:
            res = solve_global(pert, T, cfg)
        except (AuditError, BlowUpError, PicardDivergenceError) as err:
            out.append(LevelResult(float(s), math.nan, {}, math.nan, False, False,
                                   skipped=f"{type(err).__name__}: {err}"))
            continue
        delta = sup_metric(res.trajectory, base.trajectory)
        terms = _difference_terms(problem, pert, base.trajectory, cfg, base_terms)
        bound = terms["total"] * factor
        out.append(LevelResult(
            float(s), delta, terms, bound,
            within_bound=bool(delta <= bound),
            above_floor=bool(delta >= noise_floor),
        ))

    ratios: list[float] = []
    clean = [lv for lv in out if lv.skipped is None]
    for a, b in zip(clean, clean[1:]):
        if a.above_floor and b.above_floor and a.delta > 0:
            ratios.append(b.delta / a.delta)
    crossover = next((i for i, lv in enumerate(out)
                      if lv.skipped is None and not lv.above_floor), None)
    return DependenceStudy(base, out, ratios, crossover, noise_floor)


def operator_convergence_probe(problem: Problem, T: float, spec: PerturbationSpec,
                               cfg: SolverConfig | None = None, *,
                               n_fields: int = 3, seed: int = 0) -> dict:
    """Generator and propagator differences on probe fields, per level.

    Returns {"generator": [...], "propagator": [...]}: per level,
    sup ||(L_j - L) psi|| over probe times t = 0, T/2, T and
    sup_t ||(U_j - U)(t, 0) psi|| over the lattice, for n_fields standard
    normal fields psi drawn from `seed`.  Both must fall linearly with s; this
    isolates the operator-convergence half of the dependence story from the
    source terms.
    """
    cfg = cfg or SolverConfig()
    if cfg.dt is None:
        raise ValueError("operator probes need cfg.dt for a shared lattice")
    grid = problem.grid
    p = problem.params
    n = p.n
    rng = np.random.default_rng(seed)
    fields = [rng.standard_normal((n, grid.m)) for _ in range(n_fields)]
    total = int(round(T / cfg.dt))
    times = cfg.dt * np.arange(total + 1)
    probe_times = np.array([0.0, 0.5 * T, T])
    fb = GriddedFuel(problem.fuel, grid)

    props_b = build_propagators(p, fb, times, cfg.theta, cfg.scheme)
    tris_b = generator_bands(p, fb.sample(grid, probe_times), grid.dx, cfg.scheme)
    gen_sups: list[float] = []
    prop_sups: list[float] = []
    for s in spec.levels:
        pert = build_perturbed(problem, spec.directions, float(s))
        fj = GriddedFuel(pert.fuel, grid)
        tris_j = generator_bands(pert.params, fj.sample(grid, probe_times), grid.dx, cfg.scheme)
        worst_gen = 0.0
        for tri_b, tri_j in zip(tris_b, tris_j):
            for psi in fields:
                diff = generator_apply(tri_j, psi) - generator_apply(tri_b, psi)
                worst_gen = max(worst_gen, float(np.max(layer_l2(diff, grid.dx))))
        props_j = build_propagators(pert.params, fj, times, cfg.theta, cfg.scheme)
        worst_prop = 0.0
        for psi in fields:
            vb = psi.copy()
            vj = psi.copy()
            for prop_b, prop_j in zip(props_b, props_j):
                vb = prop_b.apply_values(vb)
                vj = prop_j.apply_values(vj)
                worst_prop = max(worst_prop, float(np.max(layer_l2(vj - vb, grid.dx))))
        gen_sups.append(worst_gen)
        prop_sups.append(worst_prop)
    return {"generator": gen_sups, "propagator": prop_sups}
