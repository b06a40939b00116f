"""Method-of-lines cross-check: both integrators against closed forms, each
other, and the fixed-point marcher."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs

from conftest import constant_problem, shipped_problem
from layerburn import oracle
from layerburn.evolution import GriddedFuel, generator_apply, generator_bands, steps_per_block
from layerburn.fixtures import drift_exact
from layerburn.grid import SolutionTrajectory, make_grid, sup_metric
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
    mol_blocks,
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
                   np.zeros_like(prob.phi))
    for integ in ("implicit-trapezoid", "explicit-rk4"):
        traj = mol_solve(zero, 0.02, OracleConfig(dt=0.002, integrator=integ))
        np.testing.assert_array_equal(traj.values, 0.0)


def test_ambient_equilibrium_is_preserved():
    # u = u_e with no fuel kills every source term; the stencil kills constants
    prob = constant_problem(m=101, c=0.7, u_e=0.7, d=0.5, qhat1=0.0,
                            fuel_val=0.0)
    prob = Problem(prob.grid, prob.params, prob.fuel,
                   np.full((2, 101), 0.7))
    for integ in ("implicit-trapezoid", "explicit-rk4"):
        traj = mol_solve(prob, 0.05, OracleConfig(dt=0.005, integrator=integ))
        assert np.max(np.abs(traj.values - 0.7)) <= 1e-12


def test_integrators_agree_on_reactive_fixture():
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    rk4 = mol_solve(prob, 0.08, OracleConfig(dt=0.004, integrator="explicit-rk4"))
    imp = mol_solve(prob, 0.08, OracleConfig(dt=0.004))
    assert relative_gap(rk4, imp) <= 1e-5


def test_mol_blocks_stream_the_trajectory_mol_solve_collects():
    # fresh arrays of consecutive lattice nodes, steps_per_block(n*m) at most,
    # whose rows are mol_solve's bit for bit, for both integrators
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    cfg = OracleConfig(dt=0.001)
    block = steps_per_block(prob.phi.size)
    for integ in ("implicit-trapezoid", "explicit-rk4"):
        cfg = replace(cfg, integrator=integ)
        whole = mol_solve(prob, 0.5, cfg).values
        starts, seen = [], []
        for a, rows in mol_blocks(prob, 0.5, cfg):
            assert rows.shape[1:] == prob.phi.shape and len(rows) <= block
            assert all(not np.shares_memory(rows, other) for other in seen)
            starts.append(a)
            seen.append(rows)
        assert starts == list(range(0, whole.shape[0], block)) and len(starts) > 2
        assert np.concatenate(seen).tobytes() == whole.tobytes()


def test_refinement_ladder_shows_second_order():
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    sols = [mol_solve(prob, 0.08, OracleConfig(dt=d))
            for d in (8e-3, 4e-3, 2e-3, 1e-3)]
    # each finer rung restricted to the coarser rung's nodes, which it holds bitwise
    gaps = [sup_metric(a, SolutionTrajectory(b.times[::2], b.values[::2], b.grid))
            for a, b in zip(sols, sols[1:])]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    for order in refinement_orders(gaps):
        assert 1.8 <= order <= 2.2


def test_marcher_agrees_with_mol():
    prob, _ = shipped_problem("reactive_two_layer", m=201)
    mild = solve_global(prob, 0.1, SolverConfig(dt=2e-3))
    mol = mol_solve(prob, 0.1, OracleConfig(dt=2e-3))
    assert relative_gap(mild.trajectory, mol) <= 1e-6


def test_newton_budget_exhaustion_raises(monkeypatch):
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    monkeypatch.setattr(oracle, "NEWTON_MAX", 1)
    with pytest.raises(NewtonError):
        mol_solve(prob, 0.5, OracleConfig(dt=0.25))


def test_singular_newton_matrix_is_a_newton_error(monkeypatch):
    # a nonzero dgbtrf info is a solver failure (exit 3), not a config error
    def singular(ab, kl, ku, **kw):
        return ab, None, 3

    monkeypatch.setattr(oracle, "dgbtrf", singular)
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    with pytest.raises(NewtonError, match="singular Newton matrix.*dgbtrf info 3"):
        mol_solve(prob, 0.05, OracleConfig(dt=0.01))


def test_reactive_mol_solve_factors_once(monkeypatch):
    # a time-invariant fuel is one run of equal samples: the chord iteration
    # factors its Newton matrix once, at the first step's predictor, and
    # every step converges on those factors
    calls = {"dgbtrf": 0, "dgbtrs": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(oracle, "dgbtrf", counted("dgbtrf", oracle.dgbtrf))
    monkeypatch.setattr(oracle, "dgbtrs", counted("dgbtrs", oracle.dgbtrs))
    prob, T = shipped_problem("reactive_two_layer", m=101)
    mol_solve(prob, T, OracleConfig(dt=2e-3))
    steps = int(round(T / 2e-3))
    assert calls["dgbtrf"] == 1
    assert steps <= calls["dgbtrs"] <= 2 * steps


def test_explicit_guard_rejects_large_steps():
    prob, _ = shipped_problem("reactive_two_layer", m=201)
    with pytest.raises(StabilityError):
        mol_solve(prob, 0.1, OracleConfig(dt=0.01, integrator="explicit-rk4"))


def test_relative_gap_contracts():
    # the gap is sup_metric over the reference's sup norm, so both
    # trajectories must share their grid, layers and time nodes
    prob, _ = shipped_problem("reactive_two_layer", m=101)
    grid = prob.grid
    w = np.ones((2, grid.m))
    times = 0.01 * np.arange(11)
    fine = SolutionTrajectory(times, np.stack([t * w for t in times]), grid)
    assert relative_gap(fine, fine) == 0.0
    shifted = SolutionTrajectory(times, fine.values + 0.5, grid)
    assert relative_gap(shifted, fine) == sup_metric(shifted, fine) / fine.sup_norm()
    other = make_grid(0.0, 1.0, grid.m)
    with pytest.raises(ValueError):
        relative_gap(fine, SolutionTrajectory(fine.times, fine.values, other))
    coarse = SolutionTrajectory(times[::2], fine.values[::2], grid)
    with pytest.raises(ValueError, match="different time nodes"):
        relative_gap(coarse, fine)
    bad = SolutionTrajectory(times, fine.values.copy(), grid)
    bad.values[3, 1, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        relative_gap(bad, fine)


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


def _mol_solve_per_step(problem, T, cfg, chord=True):
    """Implicit trapezoid assembled one node at a time, with the whole Newton
    matrix rebuilt whenever it is factored.  The iterate is node-major and
    the residual is A v + c + R(v): A the right-hand side's linear part
    (stencil, exchange, -c_x and ambient loss over a + b*y), c the ambient
    constant and R the reaction.  The chord iteration (the oracle's) factors
    I - (dt/2)(A + R'(v)) at the predictor of each step whose fuel sample
    differs bit for bit from the node before, and at the iterate after an
    update that did not shrink tenfold from the one before it; full Newton
    (chord=False) factors it at every iterate."""
    p, grid = problem.params, problem.grid
    fuel = GriddedFuel(problem.fuel, grid)
    n, m = problem.phi.shape
    N = n * m
    total = int(round(T / cfg.dt))
    times = cfg.dt * np.arange(total + 1)
    kb = (p.K * p.b).T.ravel()
    d = p.d.T.ravel()

    def flat(arr):
        return arr.T.ravel()

    def terms(y):
        """Per-offset entries of A, the constant c and the flat y and a + b*y."""
        L_tri = generator_bands(p, y, grid.dx, cfg.scheme)
        den = p.a + p.b * y
        diag = np.zeros((n, m))
        diag[0] = -p.q[0] - p.qhat1
        if n > 2:
            diag[1:-1] = -(p.q[: n - 2] + p.q[1 : n - 1])
        diag[-1] = -p.q[n - 2] - p.qhat2
        diag = (diag - p.c_x) / den - L_tri[:, 1]
        cup = np.zeros((n, m))
        cup[:-1] = p.q / den[:-1]
        cdn = np.zeros((n, m))
        cdn[1:] = p.q / den[1:]
        c = np.zeros((n, m))
        c[0] = p.qhat1 * p.u_e
        c[-1] += p.qhat2 * p.u_e
        return {"diag": flat(diag),
                "up1": flat(cup)[:-1], "dn1": flat(cdn)[1:],  # (i, i+1) and (i+1, i)
                "upn": -flat(L_tri[:, 2])[:-n], "dnn": -flat(L_tri[:, 0])[n:],
                "c": flat(c / den), "y": flat(y), "den": flat(den)}

    def rhs(v, t):
        out = t["diag"] * v
        out[:-1] += t["up1"] * v[1:]
        out[1:] += t["dn1"] * v[:-1]
        out[:-n] += t["upn"] * v[n:]
        out[n:] += t["dnn"] * v[:-n]
        out += t["c"]
        r = (kb * v + d) * t["y"]
        r *= arrhenius_g(v, p.E)
        return out + r / t["den"]

    def factor(t, v, half_dt):
        # dgbtrf layout: n rows of fill-in above the 2n+1 bands
        g = arrhenius_g(v, p.E)
        gp = arrhenius_g_prime(v, p.E)
        react = (kb * t["y"] * g + (kb * v + d) * t["y"] * gp) / t["den"]
        ab = np.zeros((3 * n + 1, N))
        ab[2 * n] = (1.0 - half_dt * t["diag"]) - half_dt * react
        ab[n, n:] = -half_dt * t["upn"]
        ab[3 * n, : N - n] = -half_dt * t["dnn"]
        ab[2 * n - 1, 1:] = -half_dt * t["up1"]
        ab[2 * n + 1, : N - 1] = -half_dt * t["dn1"]
        lu, piv, info = dgbtrf(ab, n, n)
        assert info == 0
        return lu, piv

    values = np.empty((total + 1, n, m))
    values[0] = problem.phi
    half_dt = 0.5 * cfg.dt
    u = flat(values[0])
    y_k = fuel.sample(0.0)
    t_k = terms(y_k)
    for k in range(total):
        t_next = float(times[k + 1])
        rhs_k = rhs(u, t_k)
        y_next = fuel.sample(t_next)
        t_nx = terms(y_next)
        v = u + cfg.dt * rhs_k
        base = u + half_dt * rhs_k
        if chord and (k == 0 or y_next.tobytes() != y_k.tobytes()):
            lu, piv = factor(t_nx, v, half_dt)
        last = math.inf
        for _ in range(oracle.NEWTON_MAX):
            if not chord:
                lu, piv = factor(t_nx, v, half_dt)
            neg_G = half_dt * rhs(v, t_nx) + base - v
            delta, _ = dgbtrs(lu, n, n, neg_G, piv)
            v = v + delta
            size = float(np.max(np.abs(delta)))
            if size <= cfg.newton_tol * (1.0 + float(np.max(np.abs(v)))):
                break
            if chord and size > 0.1 * last:
                lu, piv = factor(t_nx, v, half_dt)
            last = size
        else:
            raise NewtonError(f"Newton stalled at t={t_next:.6g} (last update {size:.3e})")
        values[k + 1] = v.reshape(m, n).T
        u, y_k, t_k = v, y_next, t_nx
    return SolutionTrajectory(times, values, grid)


def _assert_near_full_newton(got, problem, T, cfg):
    # the chord iteration ends each step with a correction below newton_tol,
    # as full Newton does, so the two agree far below the tolerance
    full = _mol_solve_per_step(problem, T, cfg, chord=False).values
    assert np.max(np.abs(got.values - full)) <= 1e-12 * np.max(np.abs(full))


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
    return Problem(grid, p, fuel(grid), phi)


def test_blocked_implicit_trapezoid_equals_per_step_reference(monkeypatch):
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
        _assert_near_full_newton(got, prob, T, cfg)

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "NEWTON_MAX", 1)
            with pytest.raises(NewtonError) as blocked:
                mol_solve(prob, T, cfg)
            with pytest.raises(NewtonError) as per_step:
                _mol_solve_per_step(prob, T, cfg)
        assert str(blocked.value) == str(per_step.value)


def test_newton_bands_reused_while_fuel_repeats_equal_per_step_reference():
    # the reference rebuilds the whole Newton matrix whenever it factors; the
    # oracle builds its iterate-free bands only when y changes bit for bit
    prob, _ = shipped_problem("reactive_two_layer", m=101)  # time-invariant fuel: built once
    cfg = OracleConfig(dt=2e-3)
    T = 0.4
    assert int(round(T / cfg.dt)) + 1 > steps_per_block(2 * 101)  # over a block boundary
    got = mol_solve(prob, T, cfg)
    assert np.array_equal(got.values, _mol_solve_per_step(prob, T, cfg).values)
    _assert_near_full_newton(got, prob, T, cfg)

    # constant before the first table node and after the last, changing between
    grid = prob.grid
    table = 0.8 - 0.3 * np.exp(-(grid.x[None, None] - np.array([[[-1.0]], [[2.0]]])) ** 2)
    table = np.repeat(table, 2, axis=1)
    moving = Problem(grid, prob.params, TabulatedFuel([0.1, 0.25], table), prob.phi)
    got = mol_solve(moving, T, cfg)
    assert np.array_equal(got.values, _mol_solve_per_step(moving, T, cfg).values)
    _assert_near_full_newton(got, moving, T, cfg)


def test_linear_part_and_reaction_equal_generator_and_source():
    # the oracle's residual A v + c + R(v) is -L_h v + f(t, v) up to rounding,
    # on two and three layers, prescribed and tabulated fuels, u_e = 0 and not
    def tabulated(grid, n):
        times = np.linspace(0.0, 0.4, 5)
        phase = grid.x[None, None] + 3.0 * times[:, None, None] + np.arange(n)[None, :, None]
        return TabulatedFuel(times, 0.5 + 0.4 * np.sin(phase))

    reactive, _ = shipped_problem("reactive_two_layer", m=101)
    three = _three_layer_problem(121, lambda grid: PrescribedFuel(
        [LogisticFrontFuel(-1.0, 2.0, 0.7), GaussianDecayFuel(0.5, 2.0, 0.9),
         LogisticFrontFuel(1.0, -1.5, 1.1)]))
    problems = [reactive, replace(reactive, fuel=tabulated(reactive.grid, 2)),
                three, replace(three, fuel=tabulated(three.grid, 3))]
    rng = np.random.default_rng(3)
    for prob in problems:
        p, grid = prob.params, prob.grid
        fuel = GriddedFuel(prob.fuel, grid)
        kb, d = oracle._flat(p.K * p.b), oracle._flat(p.d)
        for t in (0.0, 0.13, 0.4):
            y = fuel.sample(t)
            L_tri = generator_bands(p, y, grid.dx)
            A, c = oracle._linear_part(p, L_tri, p.a + p.b * y)
            for v in (prob.phi, prob.phi + rng.standard_normal(y.shape)):
                run = (A, c, oracle._flat(y), oracle._flat(p.a + p.b * y))
                got = oracle._rhs(run, kb, d, p.E, oracle._flat(v))
                want = oracle._flat(-generator_apply(L_tri, v) + source_f(p, y, v))
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
