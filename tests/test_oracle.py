"""Method-of-lines cross-check: both integrators against closed forms, each
other, and the fixed-point marcher."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from conftest import constant_problem, shipped_problem
from layerburn import oracle
from layerburn.evolution import GriddedFuel, generator_apply, generator_bands, steps_per_block
from layerburn.fixtures import drift_exact
from layerburn.grid import SolutionTrajectory, TemperatureField, make_grid
from layerburn.mild_solver import SolverConfig, solve_global
from layerburn.model import (
    GaussianDecayFuel,
    LayerParams,
    LogisticFrontFuel,
    PrescribedFuel,
    Problem,
    TabulatedFuel,
    arrhenius_g,
    arrhenius_g_prime,
    source_f,
)
from layerburn.oracle import (
    NewtonError,
    OracleConfig,
    StabilityError,
    compare,
    mol_solve,
    refinement_orders,
    relative_gap,
)


def _exact_drift_trajectory(traj):
    vals = np.stack([np.tile(drift_exact(traj.grid.x, t), (2, 1))
                     for t in traj.times])
    return SolutionTrajectory(traj.times, vals, traj.grid)


def test_implicit_matches_drifting_gaussian():
    prob, _ = shipped_problem("drift_benchmark", m=512)
    mol = mol_solve(prob, 0.1, OracleConfig(dt=1e-3))
    assert relative_gap(mol, _exact_drift_trajectory(mol)) <= 2e-3


def test_zero_data_stays_exactly_zero():
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    zero = Problem(prob.grid, prob.params, prob.fuel,
                   TemperatureField(np.zeros_like(prob.phi.values), prob.grid))
    for integ in ("implicit-trapezoid", "explicit-rk4"):
        traj = mol_solve(zero, 0.02, OracleConfig(dt=0.002, integrator=integ))
        np.testing.assert_array_equal(traj.values, 0.0)


def test_ambient_equilibrium_is_preserved():
    # u = u_e with no fuel kills every source term; the stencil kills constants
    prob = constant_problem(m=101, c=0.7, u_e=0.7, d=0.5, qhat1=0.0,
                            fuel_val=0.0)
    prob = Problem(prob.grid, prob.params, prob.fuel,
                   TemperatureField(np.full((2, 101), 0.7), prob.grid))
    for integ in ("implicit-trapezoid", "explicit-rk4"):
        traj = mol_solve(prob, 0.05, OracleConfig(dt=0.005, integrator=integ))
        assert np.max(np.abs(traj.values - 0.7)) <= 1e-12


def test_integrators_agree_on_reactive_fixture():
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    rk4 = mol_solve(prob, 0.08, OracleConfig(dt=0.004, integrator="explicit-rk4"))
    imp = mol_solve(prob, 0.08, OracleConfig(dt=0.004))
    assert relative_gap(rk4, imp) <= 1e-5


def test_refinement_ladder_shows_second_order():
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    sols = [mol_solve(prob, 0.08, OracleConfig(dt=d))
            for d in (8e-3, 4e-3, 2e-3, 1e-3)]
    gaps = [compare(a, b) for a, b in zip(sols, sols[1:])]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    for order in refinement_orders(gaps):
        assert 1.8 <= order <= 2.2


def test_marcher_agrees_with_mol():
    prob, _ = shipped_problem("reactive_two_layer", m=201)
    mild = solve_global(prob, 0.1, SolverConfig(dt=2e-3))
    mol = mol_solve(prob, 0.1, OracleConfig(dt=2e-3))
    assert relative_gap(mild.trajectory, mol) <= 1e-6


def test_newton_budget_exhaustion_raises():
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    with pytest.raises(NewtonError):
        mol_solve(prob, 0.5, OracleConfig(dt=0.25, newton_max=1))


def test_singular_newton_matrix_is_a_newton_error(monkeypatch):
    # a nonzero dgbsv info is a solver failure (exit 3), not a config error
    def singular(kl, ku, ab, b, **kw):
        return ab, None, b, 3

    monkeypatch.setattr(oracle, "dgbsv", singular)
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    with pytest.raises(NewtonError, match="singular Newton matrix.*info 3"):
        mol_solve(prob, 0.05, OracleConfig(dt=0.01))


def test_explicit_guard_rejects_large_steps():
    prob, _ = shipped_problem("reactive_two_layer", m=201)
    with pytest.raises(StabilityError):
        mol_solve(prob, 0.1, OracleConfig(dt=0.01, integrator="explicit-rk4"))


def test_compare_contracts():
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    grid = prob.grid
    w = np.ones((2, grid.m))
    fine = SolutionTrajectory(0.01 * np.arange(11),
                              np.stack([t * w for t in 0.01 * np.arange(11)]),
                              grid)
    coarse = SolutionTrajectory(0.02 * np.arange(6),
                                np.stack([t * w for t in 0.02 * np.arange(6)]),
                                grid)
    assert compare(fine, fine) == 0.0
    # linear-in-time fields interpolate exactly across nested lattices
    assert compare(coarse, fine) <= 1e-13
    from layerburn.grid import make_grid
    other = make_grid(0.0, 1.0, grid.m)
    with pytest.raises(ValueError):
        compare(fine, SolutionTrajectory(fine.times, fine.values, other))
    late = SolutionTrajectory(1.0 + fine.times, fine.values, grid)
    with pytest.raises(ValueError):
        compare(late, fine)


def test_refinement_orders_contracts():
    assert refinement_orders([4.0, 1.0, 0.25]) == [2.0, 2.0]
    with pytest.raises(ValueError):
        refinement_orders([1.0, 0.0])


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(integrator="euler")
    for dt in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            OracleConfig(dt=dt)
    with pytest.raises(ValueError):
        mol_solve(shipped_problem("reactive_two_layer", m=101)[0], 0.05, OracleConfig(dt=0.003))


def _mol_solve_per_step(problem, T, cfg):
    """Implicit trapezoid assembled one node at a time, with the whole Newton
    matrix rebuilt in every iteration: the oracle before it was blocked."""
    p, grid = problem.params, problem.grid
    fuel = GriddedFuel(problem.fuel, grid)
    n, m = problem.phi.values.shape
    N = n * m
    total = int(round(T / cfg.dt))
    times = cfg.dt * np.arange(total + 1)

    def flat(arr):
        return arr.T.ravel()

    def rhs(v, L_tri, y):
        return -generator_apply(L_tri, v) + source_f(p, y, v)

    def coupling():
        out = np.zeros((n, m))
        out[0] = -p.q[0] - p.qhat1
        if n > 2:
            out[1:-1] = -(p.q[: n - 2] + p.q[1 : n - 1])
        out[-1] = -p.q[n - 2] - p.qhat2
        return out

    def newton_matrix(L_tri, den, y, v, half_dt):
        g = arrhenius_g(v, p.E)
        gp = arrhenius_g_prime(v, p.E)
        df_diag = (-p.c_x + p.K * p.b * y * g + (p.K * p.b * v + p.d) * y * gp
                   + coupling()) / den
        ab = np.zeros((2 * n + 1, N))
        ab[n] = flat(1.0 + half_dt * L_tri[:, 1] - half_dt * df_diag)
        ab[0, n:] = half_dt * flat(L_tri[:, 2])[:-n]
        ab[2 * n, : N - n] = half_dt * flat(L_tri[:, 0])[n:]
        cup = np.zeros((n, m))
        cup[:-1] = p.q / den[:-1]
        ab[n - 1, 1:] = -half_dt * flat(cup)[:-1]
        cdn = np.zeros((n, m))
        cdn[1:] = p.q / den[1:]
        ab[n + 1, : N - 1] = -half_dt * flat(cdn)[1:]
        return ab

    values = np.empty((total + 1, n, m))
    values[0] = problem.phi.values
    half_dt = 0.5 * cfg.dt
    y_k = fuel.sample(0.0)
    L_k = generator_bands(p, y_k, grid.dx, cfg.scheme)
    for k in range(total):
        u = values[k]
        t_next = float(times[k + 1])
        rhs_k = rhs(u, L_k, y_k)
        y_next = fuel.sample(t_next)
        L_next = generator_bands(p, y_next, grid.dx, cfg.scheme)
        den = p.a + p.b * y_next
        v = u + cfg.dt * rhs_k
        for _ in range(cfg.newton_max):
            G = v - u - half_dt * (rhs_k + rhs(v, L_next, y_next))
            ab = newton_matrix(L_next, den, y_next, v, half_dt)
            delta = solve_banded((n, n), ab, -flat(G), check_finite=False)
            v = v + delta.reshape(m, n).T
            if float(np.max(np.abs(delta))) <= cfg.newton_tol * (1.0 + float(np.max(np.abs(v)))):
                break
        else:
            raise NewtonError(f"Newton stalled at t={t_next:.6g} "
                              f"(last update {float(np.max(np.abs(delta))):.3e})")
        values[k + 1] = v
        L_k, y_k = L_next, y_next
    return SolutionTrajectory(times, values, grid)


def _three_layer_problem(m, fuel):
    """Three reactive layers, so the interior layer's two exchange bands run."""
    grid = make_grid(-8.0, 8.0, m)
    x = grid.x
    layer = np.arange(1, 4)[:, None]
    p = LayerParams.constants(grid, 3, a=1.0, b=0.4, c=0.6, d=0.5, lam=0.8, K=0.3,
                              A=0.2, q=0.2, u_e=0.1, E=1.0)
    p.a[:] = 1.0 + 0.2 * np.cos(0.5 * x + layer)
    p.c[:] = 0.6 + 0.3 * np.sin(0.4 * layer * x)
    p.c_x[:] = np.gradient(p.c, grid.dx, axis=-1)
    p.q[:] = 0.2 + 0.1 * np.cos(x)
    p.qhat1[:] = 0.3 * np.exp(-x**2)
    p.qhat2[:] = 0.2 * np.exp(-(x - 1.0) ** 2)
    phi = np.stack([1.2 * np.exp(-x**2), 0.6 * np.exp(-(x - 1.0) ** 2), -0.2 * np.exp(-x**2)])
    return Problem(grid, p, fuel(grid), TemperatureField(phi, grid))


def test_blocked_implicit_trapezoid_equals_per_step_reference():
    m, T, dt = 121, 0.4, 0.002
    steps = int(round(T / dt))
    assert steps + 1 > 2 * steps_per_block(3 * m)  # at least three node blocks

    def prescribed(grid):
        return PrescribedFuel([LogisticFrontFuel(-1.0, 2.0, 0.7),
                               GaussianDecayFuel(0.5, 2.0, 0.9),
                               LogisticFrontFuel(1.0, -1.5, 1.1)])

    def tabulated(grid):
        times = np.linspace(0.0, T, 9)  # nodes between lattice nodes and on them
        phase = grid.x[None, None] + 4.0 * times[:, None, None] + np.arange(3)[None, :, None]
        return TabulatedFuel(times, 0.5 + 0.4 * np.sin(phase))

    for fuel in (prescribed, tabulated):
        prob = _three_layer_problem(m, fuel)
        cfg = OracleConfig(dt=dt)
        got = mol_solve(prob, T, cfg)
        ref = _mol_solve_per_step(prob, T, cfg)
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.values, ref.values)
        assert np.max(np.abs(got.values[-1] - got.values[0])) > 1e-3  # it moved

        stalled = OracleConfig(dt=dt, newton_max=1)
        with pytest.raises(NewtonError) as blocked:
            mol_solve(prob, T, stalled)
        with pytest.raises(NewtonError) as per_step:
            _mol_solve_per_step(prob, T, stalled)
        assert str(blocked.value) == str(per_step.value)


def test_newton_bands_reused_while_fuel_repeats_equal_per_step_reference():
    # the reference rebuilds the whole Newton matrix in every iteration; the
    # oracle builds its iterate-free bands only when y changes bit for bit
    prob, _ = shipped_problem("reactive_two_layer", m=101)  # time-invariant fuel: built once
    cfg = OracleConfig(dt=2e-3)
    T = 0.4
    assert int(round(T / cfg.dt)) + 1 > steps_per_block(2 * 101)  # over a block boundary
    got = mol_solve(prob, T, cfg)
    assert np.array_equal(got.values, _mol_solve_per_step(prob, T, cfg).values)

    # constant before the first table node and after the last, changing between
    grid = prob.grid
    table = 0.8 - 0.3 * np.exp(-(grid.x[None, None] - np.array([[[-1.0]], [[2.0]]])) ** 2)
    table = np.repeat(table, 2, axis=1)
    moving = Problem(grid, prob.params, TabulatedFuel([0.1, 0.25], table), prob.phi)
    got = mol_solve(moving, T, cfg)
    assert np.array_equal(got.values, _mol_solve_per_step(moving, T, cfg).values)
