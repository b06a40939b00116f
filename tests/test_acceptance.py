"""Acceptance gate: nine verifiable claims about the shipped solver, each
printing one pass/fail line with its measured numbers.

Run `pytest tests/test_acceptance.py -v -s` to see every line; a plain pytest
run still enforces all of them.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import shipped_config, shipped_problem
from layerburn.dependence import dependence_study
from layerburn.evolution import GriddedFuel, build_propagator, build_propagators
from layerburn.fixtures import drift_exact
from layerburn.grid import (
    SolutionTrajectory,
    l2_norm,
    layer_l2,
    sup_metric,
)
from layerburn.hypothesis import audit_problem, bound_mu, lipschitz_kappa
from layerburn.io_cli import front_track
from layerburn.mild_solver import SolverConfig, solve_coupled, solve_global
from layerburn.model import (
    GaussianDecayFuel,
    PrescribedFuel,
    arrhenius_g,
    arrhenius_g_prime,
    source_f,
)
from layerburn.oracle import OracleConfig, mol_solve, refinement_orders, relative_gap


def _verdict(num: int, name: str, ok: bool, detail: str):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_analytic_drift_diffusion():
    prob, T = shipped_problem("drift_benchmark", m=1024)
    t0 = time.perf_counter()
    res = solve_global(prob, T, SolverConfig(dt=1e-3))
    elapsed = time.perf_counter() - t0
    traj = res.trajectory
    exact = np.stack([np.tile(drift_exact(prob.grid.x, t), (2, 1))
                      for t in traj.times])
    ref = SolutionTrajectory(traj.times, exact, prob.grid)
    rel = relative_gap(traj, ref)
    ok = rel <= 2e-3 and elapsed <= 10.0
    _verdict(1, "analytic drift-diffusion",
             ok, f"rel_l2 {rel:.3e} (tol 2e-03), {elapsed:.2f} s (budget 10 s)")


def test_criterion_2_contraction_certificate():
    prob, T = shipped_problem("reactive_two_layer")
    worst_ratio = 0.0
    worst_iters = 0
    for mode in ("continuation", "contraction"):
        cfg = SolverConfig(dt=1e-3, picard_tol=1e-10, window_mode=mode)
        res = solve_global(prob, T, cfg)
        for w in res.windows:
            worst_iters = max(worst_iters, w.iterations)
            if w.ratios:
                worst_ratio = max(worst_ratio, max(w.ratios))
    ok = worst_ratio <= 0.9 and worst_iters <= 15
    _verdict(2, "contraction certificate", ok,
             f"worst gap ratio {worst_ratio:.3f} (tol 0.9), "
             f"max picard iterations {worst_iters} (tol 15)")


def test_criterion_3_uniqueness_across_seeds():
    prob, T = shipped_problem("reactive_two_layer")
    gap = sup_metric(
        solve_global(prob, T, SolverConfig(dt=1e-3, seed_mode="homogeneous")).trajectory,
        solve_global(prob, T, SolverConfig(dt=1e-3, seed_mode="initial")).trajectory,
    )
    _verdict(3, "uniqueness across seeds", gap <= 1e-9,
             f"seed sup-metric {gap:.3e} (tol 1e-09)")


def test_criterion_4_oracle_equivalence():
    prob, T = shipped_problem("reactive_two_layer")
    h = 5e-4
    gaps = []
    for dt in (4.0 * h, 2.0 * h, h):
        mild = solve_global(prob, T, SolverConfig(dt=dt))
        mol = mol_solve(prob, T, OracleConfig(dt=dt))
        gaps.append(relative_gap(mild.trajectory, mol))
    orders = refinement_orders(gaps)
    ok = gaps[-1] <= 1e-3 and min(orders) >= 1.8
    _verdict(4, "oracle equivalence", ok,
             f"finest relative gap {gaps[-1]:.3e} (tol 1e-03), "
             f"orders {', '.join(f'{o:.2f}' for o in orders)} (tol >= 1.8)")


def test_criterion_5_evolution_operator_laws():
    prob, T = shipped_problem("reactive_two_layer")
    p, grid = prob.params, prob.grid
    fuel = GriddedFuel(prob.fuel, grid)
    rng = np.random.default_rng(505)

    ident = build_propagators(p, fuel, [0.3, 0.3], 0.5, "auto")[0]
    u = rng.standard_normal((2, grid.m))
    identity_exact = np.array_equal(ident.apply_values(u), u)

    # composition with coincident sub-steps is bitwise: U(0.25, 0) built on
    # one lattice equals U(0.25, 0.125) U(0.125, 0) built separately
    varying = replace(prob, fuel=PrescribedFuel([GaussianDecayFuel(0.0, 2.0, 0.9)] * 2))
    vfuel = GriddedFuel(varying.fuel, grid)
    field = rng.standard_normal((2, grid.m))
    once = field
    for prop in build_propagators(varying.params, vfuel, [0.0, 0.125, 0.25]):
        once = prop.apply_values(once)
    stepwise = field
    for span in ([0.0, 0.125], [0.125, 0.25]):
        stepwise = build_propagators(varying.params, vfuel, span)[0].apply_values(stepwise)
    split_exact = np.array_equal(once, stepwise)

    report = audit_problem(prob, T)
    beta = report.beta
    tol_beta = 0.05 * max(1.0, beta)
    dt = 1e-3
    allowed = math.exp((beta + tol_beta) * dt)
    violations = 0
    for t in np.linspace(0.0, T - dt, 10):
        prop = build_propagator(p, fuel, float(t), float(t) + dt, 0.5, "auto")
        for _ in range(100):
            v = rng.standard_normal((2, grid.m))
            before = float(np.max(layer_l2(v, grid.dx)))
            after = float(np.max(layer_l2(prop.apply_values(v), grid.dx)))
            violations += after > allowed * before

    dprob, _ = shipped_problem("drift_benchmark", m=256)
    pd = replace(dprob.params, c=np.zeros_like(dprob.params.c),
                 c_x=np.zeros_like(dprob.params.c_x))
    dfuel = GriddedFuel(dprob.fuel, dprob.grid)
    worst_growth = 0.0
    for t in np.linspace(0.0, 0.4, 5):
        prop = build_propagator(pd, dfuel, float(t), float(t) + dt, 0.5, "auto")
        for _ in range(200):
            v = rng.standard_normal((2, dprob.grid.m))
            before = float(np.max(layer_l2(v, dprob.grid.dx)))
            after = float(np.max(layer_l2(prop.apply_values(v), dprob.grid.dx)))
            worst_growth = max(worst_growth, after / before)

    ok = identity_exact and split_exact and violations == 0 \
        and worst_growth <= 1.0 + 1e-10
    _verdict(5, "evolution-operator laws", ok,
             f"identity exact {identity_exact}, split exact {split_exact}, "
             f"norm-bound violations {violations}/1000, "
             f"pure-diffusion growth {worst_growth:.12f} (tol 1+1e-10)")


def test_criterion_6_lipschitz_and_magnitude_bounds():
    prob, T = shipped_problem("reactive_two_layer")
    p, grid = prob.params, prob.grid
    fuel = GriddedFuel(prob.fuel, grid)
    report = audit_problem(prob, T)
    rho, kappa = report.rho, report.kappa
    # nonzero ambient loss so the magnitude bound has something to dominate
    p_mu = replace(p, u_e=0.7)
    mu = bound_mu(p_mu, fuel, rho, (0.0, T))

    rng = np.random.default_rng(606)

    def ball_draw():
        v = rng.standard_normal((2, grid.m))
        return v * (rho * rng.uniform(0.1, 1.0) / float(np.max(layer_l2(v, grid.dx))))

    kappa_violations = 0
    mu_violations = 0
    f0_sup = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.0, T))
        y = fuel.sample(t)
        u, v = ball_draw(), ball_draw()
        df = float(np.max(layer_l2(source_f(p, y, u) - source_f(p, y, v), grid.dx)))
        du = float(np.max(layer_l2(u - v, grid.dx)))
        kappa_violations += df > kappa * du
        fu = float(np.max(layer_l2(source_f(p_mu, y, u), grid.dx)))
        mu_violations += fu > mu
        f0 = float(np.max(layer_l2(source_f(p_mu, y, np.zeros((2, grid.m))), grid.dx)))
        f0_sup = max(f0_sup, f0)

    dprob, dT = shipped_problem("drift_benchmark", m=256)
    dfuel = GriddedFuel(dprob.fuel, dprob.grid)
    kappa_free = lipschitz_kappa(dprob.params, dfuel, rho, (0.0, dT))
    mu_free = bound_mu(dprob.params, dfuel, rho, (0.0, dT))

    scan = np.linspace(1e-9, 2e6, 400001)
    g_sup_err = abs(float(np.max(arrhenius_g(scan, p.E))) - 1.0)
    gp_dense = float(np.max(np.abs(arrhenius_g_prime(
        np.linspace(1e-6, 10.0, 400001), p.E))))
    gp_err = abs(gp_dense - 4.0 * math.exp(-2.0) / p.E)

    ok = (kappa_violations == 0 and mu_violations == 0
          and f0_sup > 0 and kappa_free == 0.0 and mu_free == 0.0
          and g_sup_err <= 1e-6 and gp_err <= 1e-6)
    _verdict(6, "source bounds audit", ok,
             f"kappa violations {kappa_violations}/1000, "
             f"mu violations {mu_violations}/1000, "
             f"source-free kappa {kappa_free}, mu {mu_free} (must be exactly 0), "
             f"g sup error {g_sup_err:.2e}, g' sup error {gp_err:.2e} (tol 1e-06)")


def test_criterion_7_continuous_dependence():
    cfg = shipped_config("dependence_study")
    prob, T, spec = cfg.problem(), cfg.T, cfg.perturbation_spec()
    assert spec.levels.size == 9
    t0 = time.perf_counter()
    study = dependence_study(prob, T, spec, SolverConfig(dt=0.004))
    elapsed = time.perf_counter() - t0
    clean = [lv for lv in study.levels if lv.skipped is None]
    ok = (len(clean) == 9 and study.decreasing and study.all_within_bound
          and all(lv.within_bound for lv in clean)
          and all(0.4 <= r <= 0.6 for r in study.ratios)
          and elapsed <= 300.0)
    ratios = ", ".join(f"{r:.3f}" for r in study.ratios)
    _verdict(7, "continuous dependence", ok,
             f"{len(clean)}/9 levels, deltas decreasing {study.decreasing}, "
             f"ratios [{ratios}] (tol [0.4, 0.6]), "
             f"all within Gronwall bound {study.all_within_bound}, "
             f"{elapsed:.1f} s (budget 300 s)")


def test_criterion_8_apriori_bound_on_every_run():
    runs = []
    prob, T = shipped_problem("drift_benchmark", m=1024)
    runs.append(("drift", solve_global(prob, T, SolverConfig(dt=1e-3))))
    prob, T = shipped_problem("reactive_two_layer")
    runs.append(("reactive", solve_global(prob, T, SolverConfig(dt=1e-3))))
    prob, T = shipped_problem("ignition_coupled")
    runs.append(("ignition", solve_coupled(prob, T, SolverConfig(dt=0.004)).last_solve))
    ok = True
    parts = []
    for name, res in runs:
        ap = res.apriori
        ok = ok and ap["ok"] and ap["observed"] <= ap["bound"]
        parts.append(f"{name} {ap['observed']:.4g} <= {ap['bound']:.4g}")
    _verdict(8, "a-priori growth bound", ok, "; ".join(parts))


def test_criterion_9_coupled_ignition_physics():
    prob, T = shipped_problem("ignition_coupled")
    res = solve_coupled(prob, T, SolverConfig(dt=0.004))
    table = res.fuel.table
    in_range = table.min() >= 0.0 and table.max() <= 1.0
    nonincreasing = bool(np.all(np.diff(table, axis=0) <= 1e-14))
    thr, pos = front_track(res.trajectory, prob.params.u_e)
    layer1 = pos[:, 0]
    finite = bool(np.all(np.isfinite(layer1)))
    advancing = finite and bool(np.all(np.diff(layer1) >= 0.0))
    ok = in_range and nonincreasing and advancing
    _verdict(9, "coupled ignition physics", ok,
             f"fuel range [{table.min():.3f}, {table.max():.3f}], "
             f"nonincreasing {nonincreasing}, front {layer1[0]:.2f} -> "
             f"{layer1[-1]:.2f} nondecreasing {advancing} (threshold {thr:.2f})")
