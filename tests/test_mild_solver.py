"""Picard fixed point on the Duhamel form: contraction, uniqueness, window
chaining, the blow-up guard, and the coupled-fuel outer loop."""

import math

import numpy as np
import pytest

from conftest import constant_problem
from layerburn import mild_solver
from layerburn.evolution import GriddedFuel, build_propagator, build_propagators, steps_per_block
from layerburn.fixtures import homogeneous_drift, ignition_coupled, reactive_two_layer
from layerburn.grid import SolutionTrajectory, TemperatureField, l2_norm, layer_l2, sup_metric
from layerburn.hypothesis import (
    audit_problem,
    bound_mu,
    continuation_epsilon,
    continuation_radius,
    lipschitz_kappa,
)
from layerburn.mild_solver import (
    AuditError,
    BlowUpError,
    PicardDivergenceError,
    SolverConfig,
    solve_coupled,
    solve_global,
)
from layerburn.model import arrhenius_g, fuel_step, source_f


def _phi_map(p, fuel, times, phi_values, traj_values, cfg):
    """One sweep of the integral map, rebuilt from the public pieces."""
    grid = fuel.grid
    K = times.size - 1
    out = np.empty_like(traj_values)
    out[0] = phi_values
    hom = np.array(phi_values, dtype=float, copy=True)
    acc = np.zeros_like(hom)
    f_prev = source_f(p, fuel.sample(grid, float(times[0])), traj_values[0])
    for k in range(K):
        prop = build_propagator(p, fuel, float(times[k]), float(times[k + 1]),
                                cfg.theta, cfg.scheme)
        half = 0.5 * (times[k + 1] - times[k])
        f_next = source_f(p, fuel.sample(grid, float(times[k + 1])), traj_values[k + 1])
        hom = prop.apply_values(hom)
        acc = prop.apply_values(acc + half * f_prev) + half * f_next
        out[k + 1] = hom + acc
        f_prev = f_next
    return out


def test_batched_window_equals_unbatched_sweeps():
    # one 250-step window spans several assembly and source blocks; iterating
    # the per-step map from the homogeneous seed must give the solver's values
    prob, T = reactive_two_layer(m=201)
    cfg = SolverConfig(dt=0.002)
    res = solve_global(prob, T, cfg)
    first = res.windows[0]
    traj = res.trajectory
    k1 = int(np.searchsorted(traj.times, first.t_end)) + 1
    times = traj.times[:k1]
    assert times.size - 1 > 2 * steps_per_block(prob.phi.values.size)
    fuel = GriddedFuel(prob.fuel, prob.grid)
    u = np.empty((times.size,) + prob.phi.values.shape)
    u[0] = prob.phi.values
    for k in range(times.size - 1):
        u[k + 1] = build_propagator(prob.params, fuel, float(times[k]), float(times[k + 1]),
                                    cfg.theta, cfg.scheme).apply_values(u[k])
    for _ in range(first.iterations):
        u = _phi_map(prob.params, fuel, times, prob.phi.values, u, cfg)
    assert np.array_equal(u, traj.values[:k1])


def test_source_free_solve_is_homogeneous_evolution():
    prob, T = homogeneous_drift(m=256)
    cfg = SolverConfig(dt=0.005)
    res = solve_global(prob, T, cfg)
    # the integral term vanishes, so every window settles in one sweep
    assert all(w.iterations == 1 for w in res.windows)
    direct = prob.phi.values
    for prop in build_propagators(prob.params, GriddedFuel(prob.fuel, prob.grid),
                                  res.trajectory.times):
        direct = prop.apply_values(direct)
    gap = l2_norm(TemperatureField(res.trajectory.values[-1] - direct, prob.grid))
    assert gap <= 1e-12


def test_source_free_map_ignores_input_trajectory():
    prob, T = homogeneous_drift(m=256)
    fuel = GriddedFuel(prob.fuel, prob.grid)
    times = 0.01 * np.arange(11)
    cfg = SolverConfig()
    rng = np.random.default_rng(31)
    outs = []
    for _ in range(2):
        traj = rng.standard_normal((11, 2, prob.grid.m))
        outs.append(_phi_map(prob.params, fuel, times, prob.phi.values, traj, cfg))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_fixed_point_residual():
    prob, T = reactive_two_layer(m=201)
    cfg = SolverConfig(dt=0.002)
    res = solve_global(prob, T, cfg)
    traj = res.trajectory
    fuel = GriddedFuel(prob.fuel, prob.grid)
    mapped = _phi_map(prob.params, fuel, traj.times, traj.values[0],
                      traj.values, cfg)
    resid = float(np.max(layer_l2(mapped - traj.values, prob.grid.dx)))
    sup = traj.sup_norm()
    assert resid <= 20.0 * cfg.picard_tol * (1.0 + sup)


def test_map_contracts_random_trajectory_pairs():
    # the certified window bounds the Lipschitz factor of the map by 0.9
    prob, T = reactive_two_layer(m=201)
    report = audit_problem(prob, T)
    cfg = SolverConfig()
    fuel = GriddedFuel(prob.fuel, prob.grid)
    dt = 0.002
    K = max(2, int(report.T_prime / dt))
    times = dt * np.arange(K + 1)
    rng = np.random.default_rng(32)
    for _ in range(5):
        pair = []
        for _ in range(2):
            vals = rng.standard_normal((K + 1, 2, prob.grid.m))
            sup = float(np.max(layer_l2(vals, prob.grid.dx)))
            pair.append(vals * (0.8 * report.R / sup))
        u, v = pair
        fu = _phi_map(prob.params, fuel, times, prob.phi.values, u, cfg)
        fv = _phi_map(prob.params, fuel, times, prob.phi.values, v, cfg)
        num = float(np.max(layer_l2(fu - fv, prob.grid.dx)))
        den = float(np.max(layer_l2(u - v, prob.grid.dx)))
        assert num <= 0.9 * den


def test_picard_gaps_decay_geometrically():
    prob, T = reactive_two_layer(m=201)
    res = solve_global(prob, T, SolverConfig(dt=0.002))
    for w in res.windows:
        assert all(r <= 0.9 for r in w.ratios)
        assert all(b < a for a, b in zip(w.gaps, w.gaps[1:]))


def test_seed_choice_does_not_move_the_fixed_point():
    prob, T = reactive_two_layer(m=201)
    tol = 1e-10
    res_h = solve_global(prob, T, SolverConfig(dt=0.002, picard_tol=tol,
                                               seed_mode="homogeneous"))
    res_i = solve_global(prob, T, SolverConfig(dt=0.002, picard_tol=tol,
                                               seed_mode="initial"))
    assert sup_metric(res_h.trajectory, res_i.trajectory) <= 10.0 * tol


def test_window_partition_does_not_move_the_fixed_point():
    prob, T = reactive_two_layer(m=201)
    tol = 1e-10
    cfg_k = SolverConfig(dt=0.002, picard_tol=tol, max_window=T / 4.0)
    cfg_2k = SolverConfig(dt=0.002, picard_tol=tol, max_window=T / 8.0)
    res_k = solve_global(prob, T, cfg_k)
    res_2k = solve_global(prob, T, cfg_2k)
    assert len(res_2k.windows) > len(res_k.windows)
    assert sup_metric(res_k.trajectory, res_2k.trajectory) <= 10.0 * tol


def test_windows_tile_the_horizon():
    prob, T = reactive_two_layer(m=201)
    cfg = SolverConfig(dt=0.002, window_mode="contraction")
    res = solve_global(prob, T, cfg)
    ws = res.windows
    assert ws[0].t_start == 0.0
    assert ws[-1].t_end == pytest.approx(T, abs=1e-12)
    for a, b in zip(ws, ws[1:]):
        assert a.t_end == b.t_start
    # contraction windows never exceed the certified step
    for w in ws[:-1]:
        assert w.t_end - w.t_start <= res.report.T_prime * (1.0 + 1e-9)
    np.testing.assert_allclose(res.trajectory.times,
                               0.002 * np.arange(res.trajectory.times.size))


def test_continuation_windows_follow_continuation_epsilon():
    # each window is continuation_epsilon at its start time for the state
    # there, with kappa on the radius-R(t0) ball and mu = sup ||f(t, 0)||;
    # T is raised past the first window so no window is cut by the horizon
    prob, _ = reactive_two_layer(m=201)
    T = 2.0
    res = solve_global(prob, T, SolverConfig())
    p, fuel, beta = prob.params, GriddedFuel(prob.fuel, prob.grid), res.report.beta
    times = res.trajectory.times
    assert len(res.windows) >= 2
    for win in res.windows:
        t0 = win.t_start
        state = res.trajectory.values[int(np.flatnonzero(times == t0)[0])]
        phi_norm = float(np.max(layer_l2(state, prob.grid.dx)))
        span = (t0, min(t0 + 1.0, T))
        kappa = lipschitz_kappa(p, fuel, continuation_radius(t0, phi_norm, beta), span)
        mu0 = bound_mu(p, fuel, 0.0, span)
        eps = continuation_epsilon(t0, phi_norm, kappa, mu0, beta)
        assert eps < 1.0
        assert win.t_end == t0 + min(eps, T - t0)


def test_solve_is_deterministic():
    prob, T = reactive_two_layer(m=201)
    r1 = solve_global(prob, T, SolverConfig(dt=0.002))
    r2 = solve_global(prob, T, SolverConfig(dt=0.002))
    np.testing.assert_array_equal(r1.trajectory.values, r2.trajectory.values)


def test_apriori_growth_bound_reported_and_satisfied():
    prob, T = reactive_two_layer(m=201)
    res = solve_global(prob, T, SolverConfig(dt=0.002))
    ap = res.apriori
    assert ap["ok"]
    grow = math.exp(ap["beta"] * T)
    expected = grow * (l2_norm(prob.phi) + ap["mu"] * T) * math.exp(
        ap["kappa"] * grow * T)
    np.testing.assert_allclose(ap["bound"], expected, rtol=1e-12)
    assert ap["observed"] <= ap["bound"]


def test_blowup_guard_trips_at_the_ceiling():
    prob, T = reactive_two_layer(m=201)
    with pytest.raises(BlowUpError):
        solve_global(prob, T, SolverConfig(dt=0.002, blowup_ceiling=1.0))


def test_divergence_error_when_iteration_budget_exhausted():
    prob, T = reactive_two_layer(m=201)
    cfg = SolverConfig(dt=T / 4.0, picard_max_iters=1, max_halvings=0)
    with pytest.raises(PicardDivergenceError):
        solve_global(prob, T, cfg)


def test_adaptive_mode_matches_certified_solution():
    prob, T = reactive_two_layer(m=201)
    tol = 1e-10
    cert = solve_global(prob, T, SolverConfig(dt=0.002, picard_tol=tol))
    adapt = solve_global(prob, T, SolverConfig(dt=0.002, picard_tol=tol,
                                               window_mode="adaptive"))
    assert sup_metric(cert.trajectory, adapt.trajectory) <= 10.0 * tol
    # adaptive windows start from the whole remaining span
    assert len(adapt.windows) <= len(cert.windows)


def test_audit_failure_aborts_with_report():
    prob = constant_problem(qhat1=0.2)
    with pytest.raises(AuditError) as err:
        solve_global(prob, 0.5, SolverConfig(dt=0.01))
    assert not err.value.report.ok


def test_lattice_must_divide_horizon():
    prob, T = reactive_two_layer(m=201)
    with pytest.raises(ValueError):
        solve_global(prob, T, SolverConfig(dt=0.003))
    with pytest.raises(ValueError):
        solve_global(prob, -1.0, SolverConfig(dt=0.002))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(window_mode="bogus")
    with pytest.raises(ValueError):
        SolverConfig(picard_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(time_steps_per_window=1)
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(seed_mode="random")


# ---------------------------------------------------------------------------
# coupled fuel


def test_coupled_burned_out_fuel_converges_immediately():
    prob, T = ignition_coupled(m=201)
    from layerburn.model import ConstantFuel, PrescribedFuel
    prob = type(prob)(prob.grid, prob.params,
                      PrescribedFuel([ConstantFuel(0.0)] * 2), prob.phi)
    res = solve_coupled(prob, T, SolverConfig(dt=0.004))
    assert res.outer_iterations == 1
    np.testing.assert_array_equal(res.fuel.table, 0.0)


def test_coupled_cold_run_leaves_fuel_untouched():
    prob, T = ignition_coupled(m=201)
    phi = TemperatureField(-np.abs(prob.phi.values), prob.grid)
    cold = type(prob)(prob.grid, prob.params, prob.fuel, phi)
    res = solve_coupled(cold, T, SolverConfig(dt=0.004))
    # temperatures never cross 0 (beyond scheme wiggle), the reaction is frozen
    assert res.trajectory.values.max() <= 1e-9
    spread = np.abs(res.fuel.table - res.fuel.table[0]).max()
    assert spread <= 1e-14


def test_coupled_ignition_run_consumes_fuel_monotonically():
    prob, T = ignition_coupled(m=201)
    res = solve_coupled(prob, T, SolverConfig(dt=0.004))
    table = res.fuel.table
    assert table.min() >= 0.0 and table.max() <= 1.0
    assert np.all(np.diff(table, axis=0) <= 1e-14)
    assert table[-1].min() < 0.9  # the hot spot actually burned something
    # outer loop contracts: alternation gaps shrink monotonically
    assert res.outer_iterations >= 2
    assert all(b < a for a, b in zip(res.u_gaps[1:], res.u_gaps[2:]))
    assert all(b < a for a, b in zip(res.y_gaps, res.y_gaps[1:]))


def _restep_per_step(y0, u, p, dt):
    """The per-step fuel restep that fuel_step replaced, kept as the reference."""
    table = np.empty_like(u)
    table[0] = y0
    for k in range(u.shape[0] - 1):
        g = arrhenius_g(0.5 * (u[k] + u[k + 1]), p.E)
        table[k + 1] = table[k] * np.exp(-p.A * g * dt)
    return table


def test_fuel_step_equals_per_step_restep(monkeypatch):
    # the running product gives the per-step loop's table bit for bit, on
    # random temperatures (cold, hot, signed zeros) and through every outer
    # pass of the coupled ignition run, whose results must then be unchanged
    prob, T = ignition_coupled()
    p = prob.params
    y0 = prob.fuel.sample(prob.grid, 0.0)
    rng = np.random.default_rng(41)
    u = rng.standard_normal((30, 2, prob.grid.m))
    u[3] = -0.0
    u[7, :, ::4] = 0.0
    assert np.array_equal(fuel_step(y0, u, p, 0.002), _restep_per_step(y0, u, p, 0.002))

    cfg = SolverConfig(dt=0.002)
    res = solve_coupled(prob, T, cfg)
    assert np.array_equal(res.fuel.table, _restep_per_step(y0, res.trajectory.values, p, 0.002))
    monkeypatch.setattr(mild_solver, "fuel_step", _restep_per_step)
    ref = solve_coupled(prob, T, cfg)
    assert np.array_equal(res.fuel.table, ref.fuel.table)
    assert np.array_equal(res.trajectory.values, ref.trajectory.values)
    assert (res.outer_iterations, res.u_gaps, res.y_gaps) == \
        (ref.outer_iterations, ref.u_gaps, ref.y_gaps)
