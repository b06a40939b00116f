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
level then builds only its perturbed operators and runs the marcher's two
recursions, evolution.evolve and evolution.duhamel, with them over the whole
lattice.  The arithmetic per node is unchanged, so the terms are bitwise
those of recomputing the base parts for every level, step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .evolution import (
    GriddedFuel,
    build_propagators,
    duhamel,
    evolve,
    generator_apply,
    generator_bands,
    source_along,
)
from .grid import SolutionTrajectory, TemperatureField, layer_l2, sup_metric, time_lattice
from .mild_solver import (
    AuditError,
    BlowUpError,
    PicardDivergenceError,
    SolveResult,
    SolverConfig,
    solve_global,
)
from .model import PerturbedFuel, Problem, central_gradient

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
    levels: np.ndarray

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
    pb = base_problem.params
    fb = GriddedFuel(base_problem.fuel, base_problem.grid)
    times = base_traj.times
    props = build_propagators(pb, fb, times, cfg.theta, cfg.scheme)
    f = source_along(pb, fb.sample(times), base_traj.values)
    return f, evolve(props, base_problem.phi.values), duhamel(props, times, f, 0.0)


def _difference_terms(base_problem: Problem, pert_problem: Problem,
                      base_traj: SolutionTrajectory, cfg: SolverConfig,
                      base_terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> dict:
    """d0, d1, d3, d4 accumulated on the base trajectory's time lattice.

    base_terms is what _base_terms returns for the same base problem and
    trajectory; only the perturbed operators and sums are computed here, each
    over the whole lattice and reduced with one layer_l2 call.  The norms are
    per node and layer, and row 0 of every difference is 0 except
    phi_j - phi, so the sups are those of reducing every step on its own.
    """
    dx = base_problem.grid.dx
    pj = pert_problem.params
    fj = GriddedFuel(pert_problem.fuel, base_problem.grid)
    f, hb, acc_b = base_terms
    times = base_traj.times
    props = build_propagators(pj, fj, times, cfg.theta, cfg.scheme)
    df = source_along(pj, fj.sample(times), base_traj.values) - f
    dphi = pert_problem.phi.values - base_problem.phi.values
    terms = {
        "d0": layer_l2(evolve(props, dphi), dx),
        "d1": layer_l2(evolve(props, hb[0]) - hb, dx),
        "d3": layer_l2(duhamel(props, times, df, 0.0), dx),
        "d4": layer_l2(duhamel(props, times, f, 0.0) - acc_b, dx),
    }
    terms = {key: float(np.max(val)) for key, val in terms.items()}
    terms["total"] = terms["d0"] + terms["d1"] + terms["d3"] + terms["d4"]
    return terms


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
                     cfg: SolverConfig) -> DependenceStudy:
    """Sweep the perturbation ladder and compare responses against the bound.

    Base and perturbed runs share the cfg.dt lattice, so the displacement sup
    runs over identical nodes.  Levels whose perturbed problem fails its audit
    (or whose solve diverges) are recorded as skipped rather than aborting the
    sweep.
    """
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
                               cfg: SolverConfig, *,
                               n_fields: int = 3, seed: int = 0) -> dict:
    """Generator and propagator differences on probe fields, per level.

    Returns {"generator": [...], "propagator": [...]}: per level,
    sup ||(L_j - L) psi|| over probe times t = 0, T/2, T and
    sup_t ||(U_j - U)(t, 0) psi|| over the cfg.dt lattice (T must be a whole
    number of its steps), for n_fields standard normal fields psi drawn from
    `seed`.  Both must fall linearly with s; this isolates the
    operator-convergence half of the dependence story from the source terms.
    """
    grid = problem.grid
    p = problem.params
    rng = np.random.default_rng(seed)
    fields = [rng.standard_normal((p.n, grid.m)) for _ in range(n_fields)]
    times = time_lattice(T, cfg.dt)
    probe_times = np.array([0.0, 0.5 * T, T])
    fb = GriddedFuel(problem.fuel, grid)

    props_b = build_propagators(p, fb, times, cfg.theta, cfg.scheme)
    tris_b = generator_bands(p, fb.sample(probe_times), grid.dx, cfg.scheme)
    base = [evolve(props_b, psi) for psi in fields]
    gen_sups: list[float] = []
    prop_sups: list[float] = []
    for s in spec.levels:
        pert = build_perturbed(problem, spec.directions, float(s))
        fj = GriddedFuel(pert.fuel, grid)
        tris_j = generator_bands(pert.params, fj.sample(probe_times), grid.dx, cfg.scheme)
        worst_gen = 0.0
        for tri_b, tri_j in zip(tris_b, tris_j):
            for psi in fields:
                diff = generator_apply(tri_j, psi) - generator_apply(tri_b, psi)
                worst_gen = max(worst_gen, float(np.max(layer_l2(diff, grid.dx))))
        props_j = build_propagators(pert.params, fj, times, cfg.theta, cfg.scheme)
        worst_prop = max(float(np.max(layer_l2(evolve(props_j, psi) - vb, grid.dx)))
                         for psi, vb in zip(fields, base))
        gen_sups.append(worst_gen)
        prop_sups.append(worst_prop)
    return {"generator": gen_sups, "propagator": prop_sups}
