"""Admissibility checks and the quantitative constants feeding the
contraction argument: kappa, mu, beta, and the window rules."""

import math

import numpy as np
import pytest

from conftest import constant_problem, shipped_problem
from layerburn.evolution import GriddedFuel, build_propagator
from layerburn.grid import TemperatureField, l2_norm, layer_l2, make_grid
from layerburn.hypothesis import (
    PowerIterationError,
    _layer_operator_norms,
    audit_problem,
    bound_mu,
    check_H1,
    check_H2,
    check_H3,
    continuation_epsilon,
    continuation_radius,
    contraction_step,
    growth_beta,
    lipschitz_kappa,
)
from layerburn.model import (
    ConstantFuel,
    LayerParams,
    LogisticFrontFuel,
    PerturbedFuel,
    PrescribedFuel,
    smooth_bump,
    source_f,
)

# ---------------------------------------------------------------------------
# structural checks


def test_h1_passes_on_unit_constants():
    g = make_grid(0.0, 1.0, 11)
    p = LayerParams.constants(g, 2, a=1.0, lam=1.0)
    res = check_H1(p, g)
    assert res.ok
    assert 0.0 < res.bounds["k1"] <= 1.0 <= res.bounds["k2"]
    assert res.bounds["k1"] < res.bounds["k2"]


def test_h1_flags_zero_crossing_with_location():
    g = make_grid(0.0, 1.0, 11)
    p = LayerParams.constants(g, 2, a=1.0, lam=1.0)
    p.a[1, 7] = 0.0
    res = check_H1(p, g)
    assert not res.ok
    assert any("node 7" in v for v in res.violations)


def test_h1_advection_at_upper_bound_passes():
    g = make_grid(0.0, 1.0, 11)
    p = LayerParams.constants(g, 2, a=1.0, lam=2.0, c=2.0)
    res = check_H1(p, g)
    assert res.ok
    assert res.bounds["k2"] == 2.0


def test_h1_flags_negative_capacity_weight():
    g = make_grid(0.0, 1.0, 11)
    p = LayerParams.constants(g, 2, b=-0.1)
    assert not check_H1(p, g).ok


def test_h2_constant_fuel():
    g = make_grid(-5.0, 5.0, 101)
    fuel = GriddedFuel(PrescribedFuel([ConstantFuel(0.5)] * 2), g)
    res = check_H2(fuel, 1.0)
    assert res.ok
    assert res.bounds["k3"] == 0.5
    for key in ("sup|y_x|", "sup|y_xx|", "sup|y_t|", "sup|y_tx|"):
        assert res.bounds[key] == 0.0


def test_h2_logistic_front_bounded_by_one():
    g = make_grid(-5.0, 5.0, 101)
    fuel = GriddedFuel(PrescribedFuel([LogisticFrontFuel(0.0, 0.5, 1.0)] * 2), g)
    res = check_H2(fuel, 1.0)
    assert res.ok
    assert res.bounds["k3"] <= 1.0
    assert res.bounds["sup|y_t|"] > 0.0


def test_h2_flags_fuel_above_one():
    g = make_grid(-5.0, 5.0, 101)
    base = PrescribedFuel([ConstantFuel(0.9)] * 2)
    shifted = PerturbedFuel(base, np.full((2, 101), 1.0), 0.3)
    res = check_H2(GriddedFuel(shifted, g), 1.0)
    assert not res.ok
    assert any("exceeds 1" in v for v in res.violations)


def test_h3_compact_exchange_passes():
    g = make_grid(-10.0, 10.0, 201)
    p = LayerParams.constants(g, 2, q=0.1)
    p.qhat1 = 0.3 * smooth_bump(g.x, 0.0, 3.0)
    assert check_H3(p, g).ok


def test_h3_flags_non_decaying_ambient_loss():
    # a constant exchange profile has no decay at the artificial boundary,
    # so the square-integrability proxy must reject it
    g = make_grid(-10.0, 10.0, 201)
    p = LayerParams.constants(g, 2, qhat1=0.2)
    res = check_H3(p, g)
    assert not res.ok
    assert any("guard band" in v for v in res.violations)


def test_h3_zero_couplings_pass():
    g = make_grid(-10.0, 10.0, 201)
    assert check_H3(LayerParams.constants(g, 3), g).ok


# ---------------------------------------------------------------------------
# kappa and mu


def _gridded(problem):
    return GriddedFuel(problem.fuel, problem.grid)


def test_kappa_zero_for_source_free_problem():
    prob = constant_problem(a=1.0, lam=1.0)
    kap = lipschitz_kappa(prob.params, _gridded(prob), 2.0, (0.0, 1.0))
    assert kap == 0.0


def test_kappa_linear_in_exchange():
    prob1 = constant_problem(q=0.25)
    prob2 = constant_problem(q=0.5)
    k1 = lipschitz_kappa(prob1.params, _gridded(prob1), 1.0, (0.0, 1.0))
    k2 = lipschitz_kappa(prob2.params, _gridded(prob2), 1.0, (0.0, 1.0))
    assert k1 > 0.0
    np.testing.assert_allclose(k2, 2.0 * k1, rtol=1e-14)


def test_kappa_monotone_in_radius():
    prob, T = shipped_problem("reactive_two_layer", m=101)
    fuel = _gridded(prob)
    k_small = lipschitz_kappa(prob.params, fuel, 0.5, (0.0, T))
    k_large = lipschitz_kappa(prob.params, fuel, 2.0, (0.0, T))
    assert k_small <= k_large


def test_kappa_bounds_empirical_ratio():
    prob, T = shipped_problem("reactive_two_layer", m=101)
    p, grid = prob.params, prob.grid
    fuel = _gridded(prob)
    rho = 2.0
    kap = lipschitz_kappa(p, fuel, rho, (0.0, T))
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(0.0, T)
        y = fuel.sample(t)
        v = rng.standard_normal((2, grid.m))
        w = rng.standard_normal((2, grid.m))
        v *= rho * rng.uniform() / max(float(np.max(layer_l2(v, grid.dx))), 1e-30)
        w *= rho * rng.uniform() / max(float(np.max(layer_l2(w, grid.dx))), 1e-30)
        gap = float(np.max(layer_l2(source_f(p, y, v) - source_f(p, y, w), grid.dx)))
        dist = float(np.max(layer_l2(v - w, grid.dx)))
        if dist > 0.0:
            worst = max(worst, gap / dist)
    assert worst <= kap


def test_mu_zero_for_source_free_problem():
    prob = constant_problem(a=1.0, lam=1.0)
    assert bound_mu(prob.params, _gridded(prob), 2.0, (0.0, 1.0)) == 0.0


def test_mu_monotone_in_radius():
    prob, T = shipped_problem("reactive_two_layer", m=101)
    fuel = _gridded(prob)
    assert bound_mu(prob.params, fuel, 2.0, (0.0, T)) >= \
        bound_mu(prob.params, fuel, 1.0, (0.0, T))


def test_mu_bounds_source_magnitude():
    # includes a nonzero ambient temperature so f(t, 0) contributes
    prob, T = shipped_problem("reactive_two_layer", m=101)
    prob = prob.with_params(u_e=0.7)
    p, grid = prob.params, prob.grid
    fuel = _gridded(prob)
    rho = 1.5
    mu = bound_mu(p, fuel, rho, (0.0, T))
    rng = np.random.default_rng(22)
    for _ in range(1000):
        t = rng.uniform(0.0, T)
        y = fuel.sample(t)
        w = rng.standard_normal((2, grid.m))
        w *= rho * rng.uniform() / max(float(np.max(layer_l2(w, grid.dx))), 1e-30)
        mag = float(np.max(layer_l2(source_f(p, y, w), grid.dx)))
        assert mag <= mu
    zero = float(np.max(layer_l2(source_f(p, fuel.sample(0.0), np.zeros((2, grid.m))),
                                 grid.dx)))
    assert 0.0 < zero <= mu


# ---------------------------------------------------------------------------
# growth rate


def test_beta_zero_for_pure_diffusion():
    prob = constant_problem(a=1.0, lam=1.0)
    fuel = _gridded(prob)

    def factory(t0, t1):
        return build_propagator(prob.params, fuel, t0, t1)

    beta = growth_beta(factory, np.linspace(0.0, 0.4, 5), 0.001)
    assert 0.0 <= beta <= 1e-9  # one-ulp solve roundoff at most
    # the step operator itself is an L2 contraction
    prop = factory(0.0, 0.001)
    norms = _layer_operator_norms(prop, 30, 1e-8)
    assert norms.shape == (2,)
    assert np.all(norms <= 1.0 + 1e-10)


def test_beta_stable_under_probe_halving():
    # spatially varying advection with a compressive gradient drives genuine
    # norm growth; estimates at halved probe steps must agree within 20%.
    # Resolving a top singular value that sits beta*dt above the near-identity
    # cluster needs an iteration budget of order 1/(beta*dt), so this uses
    # coarse probe steps and a raised cap.
    grid = make_grid(-10.0, 10.0, 201)
    p = LayerParams.constants(grid, 2, a=1.0, lam=0.05, c=1.0)
    p.c[:] = 1.0 + 0.8 * np.sin(grid.x)
    fuel = GriddedFuel(PrescribedFuel([ConstantFuel(1.0)] * 2), grid)

    def factory(t0, t1):
        return build_propagator(p, fuel, t0, t1)

    times = [0.0, 0.2, 0.4]
    b1 = growth_beta(factory, times, 0.1, power_iters=200, power_tol=1e-8)
    b2 = growth_beta(factory, times, 0.05, power_iters=200, power_tol=1e-8)
    assert b1 > 1.0 and b2 > 1.0
    assert abs(b1 - b2) <= 0.2 * max(b1, b2)


def test_power_iteration_budget_is_enforced():
    prob = constant_problem(c=0.5)
    fuel = _gridded(prob)

    def factory(t0, t1):
        return build_propagator(prob.params, fuel, t0, t1)

    with pytest.raises(PowerIterationError):
        growth_beta(factory, [0.0], 0.001, power_iters=1)


# ---------------------------------------------------------------------------
# window rules


def test_contraction_step_source_free():
    np.testing.assert_allclose(contraction_step(0.0, 0.0, 0.0, 1.0, 10.0, 2.0), 1.8)


def test_contraction_step_lipschitz_limited():
    t_prime = contraction_step(1.0, 0.0, 1e-9, 1.0, 1e9, 10.0)
    np.testing.assert_allclose(t_prime, 0.9)


def test_contraction_step_certifies_factor():
    rng = np.random.default_rng(23)
    for _ in range(50):
        kappa = rng.uniform(0.0, 3.0)
        beta = rng.uniform(0.0, 1.0)
        mu = rng.uniform(0.0, 2.0)
        rho = rng.uniform(0.1, 2.0)
        T = rng.uniform(0.1, 3.0)
        R = rho * math.exp(beta * T) * rng.uniform(1.5, 4.0)
        t_prime = contraction_step(kappa, beta, mu, rho, R, T)
        assert 0.0 < t_prime <= 0.9 * T
        assert t_prime * kappa * math.exp(beta * T) <= 0.9 + 1e-12


def test_contraction_step_requires_room_for_growth():
    with pytest.raises(ValueError):
        contraction_step(1.0, 1.0, 1.0, 1.0, 1.0, 2.0)  # R <= rho*e^{beta T}
    with pytest.raises(ValueError):
        contraction_step(-1.0, 0.0, 0.0, 1.0, 10.0, 1.0)


def test_continuation_epsilon_cases():
    assert continuation_epsilon(0.3, 1.7, 0.0, 0.0, 0.0) == 1.0
    # at beta = 0 the working radius is exactly 2*phi_norm, so the ratio is 1/2
    np.testing.assert_allclose(continuation_epsilon(5.0, 0.8, 1.0, 0.0, 0.0), 0.5)
    assert continuation_epsilon(0.0, 0.0, 0.0, 0.0, 1.0) == 1.0  # degenerate zero state
    with pytest.raises(ValueError):
        continuation_epsilon(0.0, -1.0, 0.0, 0.0, 0.0)


def test_continuation_epsilon_nonincreasing_in_start_time():
    eps = [continuation_epsilon(t0, 1.0, 0.5, 0.3, 0.4)
           for t0 in np.linspace(0.0, 5.0, 11)]
    assert all(b <= a for a, b in zip(eps, eps[1:]))


def test_continuation_radius_formula():
    np.testing.assert_allclose(continuation_radius(1.5, 2.0, 0.4),
                               4.0 * math.exp(0.4 * 2.5), rtol=1e-15)


# ---------------------------------------------------------------------------
# combined audit


def test_audit_reactive_fixture():
    prob, T = shipped_problem("reactive_two_layer", m=201)
    report = audit_problem(prob, T)
    assert report.ok
    assert 0.0 < report.h1.bounds["k1"] < report.h1.bounds["k2"]
    assert report.kappa is not None and report.kappa >= 0.0
    assert report.mu is not None and report.mu >= 0.0
    assert report.beta is not None and report.beta >= 0.0
    assert report.R > report.rho * math.exp(report.beta * T)
    assert report.T_prime > 0.0
    text = report.to_text()
    assert "[H1]" in text and "pass: true" in text and "T_prime" in text


def test_audit_all_shipped_fixtures_pass():
    for name in ("drift_benchmark", "ignition_coupled"):
        prob, T = shipped_problem(name)
        report = audit_problem(prob, T)
        assert report.ok
        assert report.T_prime is not None


def test_audit_skips_constants_on_structural_failure():
    prob = constant_problem(qhat1=0.2)  # constant ambient loss: no decay
    report = audit_problem(prob, 1.0)
    assert not report.ok
    assert report.kappa is None and report.beta is None
    assert "violation" in report.to_text()
