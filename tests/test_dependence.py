"""Continuous dependence: response ladders, data-difference bounds, and the
operator-difference term d1 under perturbed coefficients."""

import math

import numpy as np
import pytest

from conftest import shipped_config, shipped_problem, smooth_bump
from layerburn import dependence
from layerburn.dependence import (
    PerturbationSpec,
    _base_terms,
    _difference_terms,
    build_perturbed,
    dependence_study,
    gronwall_factor,
)
from layerburn.evolution import GriddedFuel, build_propagators, steps_per_block
from layerburn.grid import SolutionTrajectory, l2_norm, layer_l2, sup_metric
from layerburn.mild_solver import SolverConfig, solve_global
from layerburn.model import central_gradient, source_f


def test_spec_validation():
    ok = {"phi": np.zeros((2, 5))}
    levels = [0.5, 0.25]
    with pytest.raises(ValueError, match="at least one perturbation direction"):
        PerturbationSpec({}, levels)
    with pytest.raises(ValueError, match="perturb c, not c_x"):
        PerturbationSpec({"c_x": np.zeros((2, 5))}, levels)
    with pytest.raises(ValueError, match="unknown perturbation target"):
        PerturbationSpec({"porosity": np.zeros((2, 5))}, levels)
    with pytest.raises(TypeError, match="levels"):
        PerturbationSpec(ok)  # no default ladder: callers pass their levels
    with pytest.raises(ValueError):
        PerturbationSpec(ok, levels=[0.5])
    with pytest.raises(ValueError):
        PerturbationSpec(ok, levels=[0.5, -0.25])


def test_build_perturbed_shifts_only_the_targets():
    cfg = shipped_config("dependence_study", m=201)
    prob, T, spec = cfg.problem(), cfg.T, cfg.perturbation_spec()
    pert = build_perturbed(prob, spec.directions, 0.25)
    p0, p1 = prob.params, pert.params
    np.testing.assert_allclose(p1.a - p0.a, 0.25 * spec.directions["a"],
                               atol=1e-15)
    np.testing.assert_allclose(p1.lam - p0.lam, 0.25 * spec.directions["lam"],
                               atol=1e-15)
    np.testing.assert_allclose(p1.qhat1 - p0.qhat1,
                               0.25 * spec.directions["qhat1"], atol=1e-15)
    np.testing.assert_allclose(pert.phi - prob.phi,
                               0.25 * spec.directions["phi"], atol=1e-15)
    # untouched fields are passed through
    np.testing.assert_array_equal(p1.b, p0.b)
    np.testing.assert_array_equal(p1.c, p0.c)

    same = build_perturbed(prob, spec.directions, 0.0)
    np.testing.assert_array_equal(same.phi, prob.phi)
    np.testing.assert_array_equal(same.params.a, p0.a)


def test_build_perturbed_keeps_advection_gradient_consistent():
    prob, _ = shipped_problem("dependence_study", m=201)
    x = prob.grid.x
    dirn = np.stack([np.sin(0.3 * x), np.zeros_like(x)])
    pert = build_perturbed(prob, {"c": dirn}, 0.5)
    np.testing.assert_array_equal(
        pert.params.c_x, central_gradient(pert.params.c, prob.grid.dx))
    assert np.max(np.abs(pert.params.c_x - prob.params.c_x)) > 0.01


def test_build_perturbed_fuel_and_ambient():
    prob, _ = shipped_problem("dependence_study", m=201)
    grid = prob.grid
    dirn = np.stack([smooth_bump(grid.x, 0.0, 2.0), np.zeros(grid.m)])
    pert = build_perturbed(prob, {"fuel": dirn, "u_e": -0.5}, 0.1)
    base_y = prob.fuel.sample(grid, 0.3)
    np.testing.assert_allclose(pert.fuel.sample(grid, 0.3),
                               base_y + 0.1 * dirn, atol=1e-15)
    assert pert.params.u_e == prob.params.u_e - 0.05


def test_response_ladder_halves_and_respects_bound():
    cfg = shipped_config("dependence_study", m=201)
    prob, T, spec = cfg.problem(), cfg.T, cfg.perturbation_spec()
    spec = PerturbationSpec(spec.directions, levels=2.0 ** -np.arange(5, dtype=float))
    study = dependence_study(prob, T, spec, SolverConfig(dt=0.004))
    assert all(lv.skipped is None for lv in study.levels)
    assert all(lv.above_floor for lv in study.levels)
    assert study.decreasing
    assert study.all_within_bound
    assert study.crossover is None
    assert len(study.ratios) == 4
    for r in study.ratios:
        assert 0.4 <= r <= 0.6
    # (U_j - U)(t, 0) phi is linear in s to first order: d1 halves with s
    d1 = [lv.terms["d1"] for lv in study.levels]
    for a, b in zip(d1, d1[1:]):
        assert 0.45 <= b / a <= 0.55
    for lv in study.levels:
        assert set(lv.terms) == {"d0", "d1", "d3", "d4", "total"}
        assert lv.bound == pytest.approx(
            lv.terms["total"] * gronwall_factor(study.base.report.beta, T))
    floor = 100.0 * 1e-10 * (1.0 + study.base.trajectory.sup_norm())
    assert study.noise_floor == pytest.approx(floor)


def test_initial_state_response_is_exactly_the_propagated_difference():
    # same operator on both sides: the displacement IS the d0 term
    prob, _ = shipped_problem("drift_benchmark", m=256)
    dirn = np.stack([smooth_bump(prob.grid.x, 0.0, 3.0),
                     smooth_bump(prob.grid.x, 1.0, 2.0)])
    spec = PerturbationSpec({"phi": dirn}, levels=[0.5, 0.25, 0.125])
    study = dependence_study(prob, 0.1, spec, SolverConfig(dt=1e-3))
    tol = 1e-10
    for lv in study.levels:
        assert lv.terms["d1"] == 0.0
        assert lv.terms["d3"] == 0.0
        assert lv.terms["d4"] == 0.0
        assert abs(lv.delta - lv.terms["d0"]) <= 20.0 * tol
    for r in study.ratios:
        assert abs(r - 0.5) <= 1e-6


def test_noise_floor_crossover_is_detected():
    prob, _ = shipped_problem("drift_benchmark", m=256)
    dirn = np.stack([1e-6 * smooth_bump(prob.grid.x, 0.0, 3.0),
                     np.zeros(prob.grid.m)])
    spec = PerturbationSpec({"phi": dirn}, levels=2.0 ** -np.arange(9, dtype=float))
    study = dependence_study(prob, 0.1, spec, SolverConfig(dt=1e-3))
    assert study.crossover is not None
    assert 2 <= study.crossover <= 8
    # sunk levels are excluded from the ratio chain, not treated as failures
    assert study.decreasing
    clean_above = [lv for lv in study.levels if lv.above_floor]
    assert len(study.ratios) == len(clean_above) - 1


def test_inadmissible_levels_are_skipped_not_fatal():
    prob, T = shipped_problem("dependence_study", m=201)
    dirn = np.full((2, prob.grid.m), -1.5)
    spec = PerturbationSpec({"a": dirn}, levels=[1.0, 0.5, 0.25])
    study = dependence_study(prob, T, spec, SolverConfig(dt=0.004))
    assert study.levels[0].skipped is not None
    assert "AuditError" in study.levels[0].skipped
    assert math.isnan(study.levels[0].delta)
    assert all(lv.skipped is None for lv in study.levels[1:])
    assert study.decreasing
    assert len(study.ratios) == 1


def test_levels_with_a_window_below_dt_are_skipped():
    # a large heat release shrinks the level's certified window below dt: the
    # level is skipped with the solver's reason, the milder levels still run
    prob, T = shipped_problem("dependence_study", m=201)
    spec = PerturbationSpec({"K": np.full((2, prob.grid.m), 1000.0)},
                            levels=[1.0, 1e-3, 5e-4])
    study = dependence_study(prob, T, spec, SolverConfig(dt=0.004))
    assert study.levels[0].skipped.startswith("WindowBelowStepError: certified window")
    assert math.isnan(study.levels[0].delta)
    assert all(lv.skipped is None for lv in study.levels[1:])


def test_gronwall_factor_formula():
    assert gronwall_factor(0.0, 0.5) == pytest.approx(1.0 + 0.5 * 2.0 * math.exp(1.0))
    c = 1.0 + math.exp(0.3 * 0.5)
    assert gronwall_factor(0.3, 0.5) == pytest.approx(1.0 + 0.5 * c * math.exp(0.5 * c))


def _difference_terms_per_level(base_problem, pert_problem, base_traj, cfg):
    """The data terms with the base operators and sums rebuilt for the level,
    as the study computed them before the base terms were shared."""
    grid = base_problem.grid
    dx = grid.dx
    pb, pj = base_problem.params, pert_problem.params
    fb = GriddedFuel(base_problem.fuel, grid)
    fj = GriddedFuel(pert_problem.fuel, grid)
    times = base_traj.times
    e0 = pert_problem.phi - base_problem.phi
    hb = base_problem.phi.copy()
    hp = hb.copy()
    acc3 = np.zeros_like(hb)
    acc_p = np.zeros_like(hb)
    acc_b = np.zeros_like(hb)
    d0, d1, d3, d4 = float(np.max(layer_l2(e0, dx))), 0.0, 0.0, 0.0
    block = steps_per_block(hb.size)
    for a in range(0, times.size - 1, block):
        seg = times[a : a + block + 1]
        props_b = build_propagators(pb, fb, seg, cfg.theta, cfg.scheme)
        props_j = build_propagators(pj, fj, seg, cfg.theta, cfg.scheme)
        u_seg = base_traj.values[a : a + block + 1]
        f = source_f(pb, np.stack([fb.sample(float(t)) for t in seg]), u_seg)
        f_j = source_f(pj, np.stack([fj.sample(float(t)) for t in seg]), u_seg)
        half = 0.5 * np.diff(seg)
        for k, (prop_b, prop_j) in enumerate(zip(props_b, props_j)):
            e0 = prop_j.apply_values(e0)
            hb = prop_b.apply_values(hb)
            hp = prop_j.apply_values(hp)
            acc3 = prop_j.apply_values(acc3 + half[k] * (f_j[k] - f[k])) \
                + half[k] * (f_j[k + 1] - f[k + 1])
            acc_p = prop_j.apply_values(acc_p + half[k] * f[k]) + half[k] * f[k + 1]
            acc_b = prop_b.apply_values(acc_b + half[k] * f[k]) + half[k] * f[k + 1]
            d0 = max(d0, float(np.max(layer_l2(e0, dx))))
            d1 = max(d1, float(np.max(layer_l2(hp - hb, dx))))
            d3 = max(d3, float(np.max(layer_l2(acc3, dx))))
            d4 = max(d4, float(np.max(layer_l2(acc_p - acc_b, dx))))
    return {"d0": d0, "d1": d1, "d3": d3, "d4": d4, "total": d0 + d1 + d3 + d4}


def test_shared_base_terms_equal_per_level_recomputation():
    # base terms computed once along a lattice of several blocks, every data
    # target (fuel and c included), three levels
    cfg = shipped_config("dependence_study", m=201)
    prob, T, spec = cfg.problem(), cfg.T, cfg.perturbation_spec()
    grid = prob.grid
    directions = dict(spec.directions)
    directions["fuel"] = np.stack([0.1 * smooth_bump(grid.x, 0.0, 2.0), np.zeros(grid.m)])
    directions["c"] = np.stack([np.zeros(grid.m), 0.2 * smooth_bump(grid.x, 1.0, 2.0)])
    directions["u_e"] = -0.3
    cfg = SolverConfig(dt=0.004)
    base = solve_global(prob, T, cfg).trajectory
    assert base.times.size - 1 > steps_per_block(prob.phi.size)
    base_terms = _base_terms(prob, base, cfg)
    assert all(arr.shape == base.values.shape for arr in base_terms)
    for s in (0.5, 0.125, 1.0 / 64.0):
        pert = build_perturbed(prob, directions, s)
        got = _difference_terms(prob, pert, base, cfg, base_terms)
        ref = _difference_terms_per_level(prob, pert, base, cfg)
        assert got == ref
        assert all(val > 0.0 for val in got.values())


def _continued_and_cold(monkeypatch, prob, T, spec, cfg):
    """The study, each level's trajectory as its solve returned it, and a cold
    solve of every level that was solved."""
    solved = []

    def recording(problem, T, cfg, **kw):
        res = solve_global(problem, T, cfg, **kw)
        # the next level's guess is formed in this buffer, so keep a copy
        solved.append((problem, res.trajectory.values.copy()))
        return res

    monkeypatch.setattr(dependence, "solve_global", recording)
    study = dependence_study(prob, T, spec, cfg)
    cold = [(values, solve_global(problem, T, cfg).trajectory) for problem, values in solved[1:]]
    return study, cold


def test_continued_ladder_saves_sweeps_and_lands_on_the_cold_solves(monkeypatch):
    # each level starts from the secant through the base and the level before
    # it; the fixed point is unique, so only the sweep counts move
    cfg = shipped_config("dependence_study")
    prob, T, spec = cfg.problem(), cfg.T, cfg.perturbation_spec()
    study, cold = _continued_and_cold(monkeypatch, prob, T, spec, cfg.solver)
    assert len(study.levels) == len(cold) == 9
    sweeps = [lv.sweeps for lv in study.levels]
    assert sweeps[0] == 7  # the first level starts from the base trajectory
    assert sum(sweeps[1:]) <= 30  # 56 from cold starts
    for values, ref in cold:
        gap = sup_metric(SolutionTrajectory(ref.times, values, ref.grid), ref)
        assert gap <= cfg.solver.picard_tol * (1.0 + ref.sup_norm())


def test_a_skipped_level_keeps_the_secant(monkeypatch):
    # the predictor of a skipped level lies on the secant of the last solved
    # one, so the level after it still starts from that secant
    prob, T = shipped_problem("dependence_study", m=201)
    cfg = SolverConfig(dt=0.004)
    dirn = np.full((2, prob.grid.m), -1.5)
    spec = PerturbationSpec({"a": dirn}, levels=[0.25, 1.0, 0.125, 0.0625])
    study, cold = _continued_and_cold(monkeypatch, prob, T, spec, cfg)
    assert [lv.skipped is None for lv in study.levels] == [True, False, True, True]
    assert study.levels[1].skipped == "AuditError: admissibility audit failed:"
    assert study.levels[1].sweeps is None
    assert study.decreasing
    unskipped = PerturbationSpec(spec.directions, levels=[0.25, 0.125, 0.0625])
    assert [lv.sweeps for lv in study.levels if lv.skipped is None] \
        == [lv.sweeps for lv in dependence_study(prob, T, unskipped, cfg).levels]
    for values, ref in cold:
        gap = sup_metric(SolutionTrajectory(ref.times, values, ref.grid), ref)
        assert gap <= cfg.picard_tol * (1.0 + ref.sup_norm())


def test_the_study_leaves_its_base_solve_untouched():
    # the first level solves in a copy of the base trajectory and each later
    # level in a fresh predictor buffer, so the base stays a cold solve's bits
    config = shipped_config("dependence_study", m=201)
    prob, T, spec = config.problem(), config.T, config.perturbation_spec()
    study = dependence_study(prob, T, spec, config.solver)
    assert sum(lv.skipped is None for lv in study.levels) >= 2
    cold = solve_global(prob, T, config.solver).trajectory.values
    assert study.base.trajectory.values.tobytes() == cold.tobytes()
