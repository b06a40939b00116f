"""Picard fixed point on the Duhamel form: contraction, uniqueness, window
chaining, the blow-up guard, and the coupled-fuel outer loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import constant_problem, shipped_problem
from layerburn import mild_solver
from layerburn.dependence import PerturbationSpec, operator_convergence_probe
from layerburn.evolution import (
    GriddedFuel,
    Propagator,
    build_propagator,
    build_propagators,
    steps_per_block,
)
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
    SolverError,
    solve_coupled,
    solve_global,
)
from layerburn.model import (
    LogisticFrontFuel,
    PrescribedFuel,
    arrhenius_g,
    fuel_step,
    source_f,
)
from layerburn.oracle import OracleConfig, mol_solve


def _phi_map(p, fuel, times, phi_values, traj_values, cfg):
    """One sweep of the integral map, rebuilt from the public pieces: the
    recursion u_{k+1} = U_k (u_k + (dt/2) f_k) + (dt/2) f_{k+1} from phi."""
    K = times.size - 1
    out = np.empty_like(traj_values)
    out[0] = phi_values
    acc = out[0]
    f_prev = source_f(p, fuel.sample(float(times[0])), traj_values[0])
    for k in range(K):
        prop = build_propagator(p, fuel, float(times[k]), float(times[k + 1]),
                                cfg.theta, cfg.scheme)
        half = 0.5 * (times[k + 1] - times[k])
        f_next = source_f(p, fuel.sample(float(times[k + 1])), traj_values[k + 1])
        acc = out[k + 1] = prop.apply_values(acc + half * f_prev) + half * f_next
        f_prev = f_next
    return out


def test_batched_window_equals_unbatched_sweeps():
    # one 250-step window spans several assembly and source blocks; iterating
    # the per-step map from the homogeneous seed must give the solver's values
    prob, T = shipped_problem("reactive_two_layer", m=201)
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
    prob, T = shipped_problem("drift_benchmark", m=256)
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
    prob, T = shipped_problem("drift_benchmark", m=256)
    fuel = GriddedFuel(prob.fuel, prob.grid)
    times = 0.01 * np.arange(11)
    cfg = SolverConfig(dt=0.01)
    rng = np.random.default_rng(31)
    outs = []
    for _ in range(2):
        traj = rng.standard_normal((11, 2, prob.grid.m))
        outs.append(_phi_map(prob.params, fuel, times, prob.phi.values, traj, cfg))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_fixed_point_residual():
    prob, T = shipped_problem("reactive_two_layer", m=201)
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
    prob, T = shipped_problem("reactive_two_layer", m=201)
    report = audit_problem(prob, T)
    cfg = SolverConfig(dt=0.002)
    fuel = GriddedFuel(prob.fuel, prob.grid)
    dt = cfg.dt
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
    prob, T = shipped_problem("reactive_two_layer", m=201)
    res = solve_global(prob, T, SolverConfig(dt=0.002))
    for w in res.windows:
        assert all(r <= 0.9 for r in w.ratios)
        assert all(b < a for a, b in zip(w.gaps, w.gaps[1:]))


def test_seed_choice_does_not_move_the_fixed_point():
    prob, T = shipped_problem("reactive_two_layer", m=201)
    tol = 1e-10
    res_h = solve_global(prob, T, SolverConfig(dt=0.002, picard_tol=tol,
                                               seed_mode="homogeneous"))
    res_i = solve_global(prob, T, SolverConfig(dt=0.002, picard_tol=tol,
                                               seed_mode="initial"))
    assert sup_metric(res_h.trajectory, res_i.trajectory) <= 10.0 * tol


def test_window_partition_does_not_move_the_fixed_point():
    prob, T = shipped_problem("reactive_two_layer", m=201)
    tol = 1e-10
    cfg_k = SolverConfig(dt=0.002, picard_tol=tol, max_window=T / 4.0)
    cfg_2k = SolverConfig(dt=0.002, picard_tol=tol, max_window=T / 8.0)
    res_k = solve_global(prob, T, cfg_k)
    res_2k = solve_global(prob, T, cfg_2k)
    assert len(res_2k.windows) > len(res_k.windows)
    assert sup_metric(res_k.trajectory, res_2k.trajectory) <= 10.0 * tol


def test_windows_tile_the_horizon():
    prob, T = shipped_problem("reactive_two_layer", m=201)
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
    # each window starts at the lattice node t0 where the last one ended and
    # takes the whole steps of continuation_epsilon at t0 for the state there,
    # with kappa on the radius-R(t0) ball and mu = sup ||f(t, 0)|| over
    # [t0, t0 + 1]; a moving fuel front makes that depend on t0, and T is
    # raised past the first window so the horizon cuts only the last one
    prob, _ = shipped_problem("reactive_two_layer", m=201)
    prob = replace(prob, fuel=PrescribedFuel([LogisticFrontFuel(-2.0, 3.0, 0.5)] * 2))
    T, dt = 2.0, 0.002
    res = solve_global(prob, T, SolverConfig(dt=dt))
    p, fuel, beta = prob.params, GriddedFuel(prob.fuel, prob.grid), res.report.beta
    times = res.trajectory.times
    assert len(res.windows) >= 3
    k0 = 0
    for j, win in enumerate(res.windows):
        t0 = float(times[k0])
        assert win.t_start == t0
        phi_norm = float(np.max(layer_l2(res.trajectory.values[k0], prob.grid.dx)))
        span = (t0, min(t0 + 1.0, T))
        kappa = lipschitz_kappa(p, fuel, continuation_radius(t0, phi_norm, beta), span)
        mu0 = bound_mu(p, fuel, 0.0, span)
        eps = continuation_epsilon(t0, phi_norm, kappa, mu0, beta)
        if j < len(res.windows) - 1:  # sized by epsilon, not by its cap or the horizon
            assert eps < min(1.0, T - t0)
        steps_left = times.size - 1 - k0
        n_sub = min(steps_left, max(1, math.floor(min(eps, T - t0) / dt * (1.0 + 1e-12))))
        assert win.t_end == times[k0 + n_sub]
        k0 += n_sub
    assert k0 == times.size - 1


def test_solve_is_deterministic():
    prob, T = shipped_problem("reactive_two_layer", m=201)
    r1 = solve_global(prob, T, SolverConfig(dt=0.002))
    r2 = solve_global(prob, T, SolverConfig(dt=0.002))
    np.testing.assert_array_equal(r1.trajectory.values, r2.trajectory.values)


def test_apriori_growth_bound_reported_and_satisfied():
    prob, T = shipped_problem("reactive_two_layer", m=201)
    res = solve_global(prob, T, SolverConfig(dt=0.002))
    ap = res.apriori
    assert ap["ok"]
    grow = math.exp(ap["beta"] * T)
    expected = grow * (l2_norm(prob.phi) + ap["mu"] * T) * math.exp(
        ap["kappa"] * grow * T)
    np.testing.assert_allclose(ap["bound"], expected, rtol=1e-12)
    assert ap["observed"] <= ap["bound"]


def test_blowup_guard_trips_at_the_ceiling():
    prob, T = shipped_problem("reactive_two_layer", m=201)
    with pytest.raises(BlowUpError):
        solve_global(prob, T, SolverConfig(dt=0.002, blowup_ceiling=1.0))


def test_divergence_error_when_iteration_budget_exhausted():
    prob, T = shipped_problem("reactive_two_layer", m=201)
    cfg = SolverConfig(dt=T / 4.0, picard_max_iters=1, max_halvings=0)
    with pytest.raises(PicardDivergenceError):
        solve_global(prob, T, cfg)


def test_adaptive_mode_matches_certified_solution():
    prob, T = shipped_problem("reactive_two_layer", m=201)
    tol = 1e-10
    cert = solve_global(prob, T, SolverConfig(dt=0.002, picard_tol=tol))
    adapt = solve_global(prob, T, SolverConfig(dt=0.002, picard_tol=tol,
                                               window_mode="adaptive"))
    assert sup_metric(cert.trajectory, adapt.trajectory) <= 10.0 * tol
    # adaptive windows start from the whole remaining span
    assert len(adapt.windows) <= len(cert.windows)


# ---------------------------------------------------------------------------
# warm starts


def test_guess_at_the_fixed_point_takes_one_sweep_per_window():
    # a window's first guess row is replaced by the window state, so spoiling
    # the row at t = 0 costs no sweep
    prob, T = shipped_problem("reactive_two_layer", m=201)
    cfg = SolverConfig(dt=0.002, max_window=T / 4.0)
    cold = solve_global(prob, T, cfg)
    guess = cold.trajectory.values.copy()
    guess[0] += 1.0
    warm = solve_global(prob, T, cfg, report=cold.report, guess=guess)
    assert len(warm.windows) == len(cold.windows) > 1
    assert all(w.iterations == 1 for w in warm.windows)
    bound = cfg.picard_tol * (1.0 + cold.trajectory.sup_norm())
    assert sup_metric(warm.trajectory, cold.trajectory) <= bound


def test_warm_window_makes_one_apply_per_step_and_sweep(monkeypatch):
    # a warm-started window runs only the sweeps' recursion: sweeps x K
    # applies and no homogeneous evolution; a cold window adds one evolve
    prob, T = shipped_problem("reactive_two_layer", m=201)
    cfg = SolverConfig(dt=0.002, max_window=T / 4.0)
    cold = solve_global(prob, T, cfg)
    applies = []
    evolves = []
    orig_apply = Propagator.apply_values
    orig_evolve = mild_solver.evolve

    def counting_apply(self, values):
        applies.append(1)
        return orig_apply(self, values)

    def counting_evolve(props, start):
        evolves.append(len(props))
        return orig_evolve(props, start)

    monkeypatch.setattr(Propagator, "apply_values", counting_apply)
    monkeypatch.setattr(mild_solver, "evolve", counting_evolve)
    guess = cold.trajectory.values + 1e-6
    warm = solve_global(prob, T, cfg, report=cold.report, guess=guess)
    steps = [int(round((w.t_end - w.t_start) / cfg.dt)) for w in warm.windows]
    assert len(warm.windows) > 1 and warm.total_iterations > len(warm.windows)
    assert evolves == []
    assert len(applies) == sum(w.iterations * K for w, K in zip(warm.windows, steps))

    applies.clear()
    again = solve_global(prob, T, cfg, report=cold.report)
    steps = [int(round((w.t_end - w.t_start) / cfg.dt)) for w in again.windows]
    assert evolves == steps
    assert len(applies) == sum((w.iterations + 1) * K for w, K in zip(again.windows, steps))
    assert np.array_equal(again.trajectory.values, cold.trajectory.values)


def test_guess_follows_halved_windows():
    # a poor guess and a short sweep budget force halvings; each halved window
    # starts from its own slice of the guess, and the fixed point does not move
    prob, T = shipped_problem("reactive_two_layer", m=201)
    tol = 1e-10
    ref = solve_global(prob, T, SolverConfig(dt=0.002, picard_tol=tol))
    cfg = SolverConfig(dt=0.002, picard_tol=tol, picard_max_iters=5)
    rough = 1.5 * np.repeat(prob.phi.values[None], ref.trajectory.times.size, axis=0)
    res = solve_global(prob, T, cfg, report=ref.report, guess=rough)
    assert sum(w.halvings for w in res.windows) > 0
    assert sup_metric(res.trajectory, ref.trajectory) <= 10.0 * tol


def test_guess_off_the_lattice_is_a_solver_error():
    prob, T = shipped_problem("reactive_two_layer", m=201)
    report = audit_problem(prob, T)
    cfg = SolverConfig(dt=0.01)
    on_lattice = np.zeros((int(round(T / cfg.dt)) + 1,) + prob.phi.values.shape)
    for bad in (on_lattice[:-1], on_lattice[:, :, :-1], on_lattice[0]):
        with pytest.raises(SolverError, match="Picard guess has shape"):
            solve_global(prob, T, cfg, report=report, guess=bad)


def test_audit_failure_aborts_with_report():
    prob = constant_problem(qhat1=0.2)
    with pytest.raises(AuditError) as err:
        solve_global(prob, 0.5, SolverConfig(dt=0.01))
    assert not err.value.report.ok


def test_lattice_must_divide_horizon():
    # every solve marches on grid.time_lattice, which rejects a horizon that
    # is not a whole number of steps instead of stopping short of it
    prob, T = shipped_problem("reactive_two_layer", m=201)
    with pytest.raises(ValueError):
        solve_global(prob, T, SolverConfig(dt=0.003))
    with pytest.raises(ValueError):
        solve_global(prob, -1.0, SolverConfig(dt=0.002))
    whole = "whole number of dt steps"
    with pytest.raises(ValueError, match=whole):
        solve_coupled(prob, T, SolverConfig(dt=0.003))
    with pytest.raises(ValueError, match=whole):
        mol_solve(prob, 0.1, OracleConfig(dt=0.03))
    spec = PerturbationSpec({"lam": np.full((2, prob.grid.m), 0.01)}, levels=[0.5, 0.25])
    with pytest.raises(ValueError, match=whole):
        operator_convergence_probe(prob, 0.1, spec, SolverConfig(dt=0.03))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, window_mode="bogus")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, picard_tol=0.0)
    for dt in (-0.1, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            SolverConfig(dt=dt)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, seed_mode="random")
    for theta in (0.0, 0.3, 0.4999, 1.0001, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"theta must lie in \[1/2, 1\]"):
            SolverConfig(dt=0.01, theta=theta)
    for theta in (0.5, 0.7, 1.0):
        assert SolverConfig(dt=0.01, theta=theta).theta == theta
    for name in ("picard_tol", "coupled_outer_tol", "blowup_ceiling", "max_window"):
        for value in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                SolverConfig(dt=0.01, **{name: value})
    with pytest.raises(ValueError, match="picard_max_iters must be at least 1"):
        SolverConfig(dt=0.01, picard_max_iters=0)


def test_solver_config_requires_dt():
    # dt has no default: every solve runs on its lattice
    with pytest.raises(TypeError, match="dt"):
        SolverConfig()
    with pytest.raises(TypeError, match="dt"):
        SolverConfig(theta=1.0)


# ---------------------------------------------------------------------------
# coupled fuel


def test_coupled_burned_out_fuel_converges_immediately():
    prob, T = shipped_problem("ignition_coupled", m=201)
    from layerburn.model import ConstantFuel, PrescribedFuel
    prob = type(prob)(prob.grid, prob.params,
                      PrescribedFuel([ConstantFuel(0.0)] * 2), prob.phi)
    res = solve_coupled(prob, T, SolverConfig(dt=0.004))
    assert res.outer_iterations == 1
    np.testing.assert_array_equal(res.fuel.table, 0.0)


def test_coupled_cold_run_leaves_fuel_untouched():
    prob, T = shipped_problem("ignition_coupled", m=201)
    phi = TemperatureField(-np.abs(prob.phi.values), prob.grid)
    cold = type(prob)(prob.grid, prob.params, prob.fuel, phi)
    res = solve_coupled(cold, T, SolverConfig(dt=0.004))
    # temperatures never cross 0 (beyond scheme wiggle), the reaction is frozen
    assert res.trajectory.values.max() <= 1e-9
    spread = np.abs(res.fuel.table - res.fuel.table[0]).max()
    assert spread <= 1e-14


def test_coupled_ignition_run_consumes_fuel_monotonically():
    prob, T = shipped_problem("ignition_coupled", m=201)
    res = solve_coupled(prob, T, SolverConfig(dt=0.004))
    table = res.fuel.table
    assert table.min() >= 0.0 and table.max() <= 1.0
    assert np.all(np.diff(table, axis=0) <= 1e-14)
    assert table[-1].min() < 0.9  # the hot spot actually burned something
    # outer loop contracts: alternation gaps shrink monotonically
    assert res.outer_iterations >= 2
    assert all(b < a for a, b in zip(res.u_gaps[1:], res.u_gaps[2:]))
    assert all(b < a for a, b in zip(res.y_gaps, res.y_gaps[1:]))


def test_coupled_warm_start_matches_cold_passes(monkeypatch):
    # pass k >= 2 starts from pass k-1: same passes and the same fixed point,
    # in fewer sweeps than starting every pass from the seed_mode seed
    prob, T = shipped_problem("ignition_coupled", m=201)
    cfg = SolverConfig(dt=0.004)
    warm = solve_coupled(prob, T, cfg)

    def cold_solve(problem, T, cfg, *, guess=None):
        return solve_global(problem, T, cfg)

    monkeypatch.setattr(mild_solver, "solve_global", cold_solve)
    cold = solve_coupled(prob, T, cfg)
    assert warm.outer_iterations == cold.outer_iterations >= 2
    assert len(warm.pass_iterations) == warm.outer_iterations
    assert warm.pass_iterations[0] == cold.pass_iterations[0]
    assert warm.pass_iterations[-1] == warm.last_solve.total_iterations
    assert sum(warm.pass_iterations) < sum(cold.pass_iterations)
    assert len(warm.pass_worst_ratios) == warm.outer_iterations
    assert warm.pass_worst_ratios[0] == cold.pass_worst_ratios[0] > 0.0
    assert warm.pass_worst_ratios[-1] == warm.last_solve.worst_ratio
    for got, ref in ((warm.trajectory.values, cold.trajectory.values),
                     (warm.fuel.table, cold.fuel.table)):
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


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
    prob, T = shipped_problem("ignition_coupled")
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
