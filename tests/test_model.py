"""Arrhenius nonlinearity, coefficient fields, the source term, and fuel
models with the coupled-fuel restep."""

import numpy as np
import pytest

from conftest import shipped_problem
from layerburn.evolution import GriddedFuel
from layerburn.grid import TemperatureField, l2_norm, layer_l2, make_grid
from layerburn.hypothesis import check_H2
from layerburn.model import (
    ConstantFuel,
    GaussianDecayFuel,
    LayerParams,
    LogisticFrontFuel,
    PerturbedFuel,
    PrescribedFuel,
    TabulatedFuel,
    arrhenius_g,
    arrhenius_g_prime,
    central_gradient,
    coefficient_fields,
    fuel_step,
    g_prime_sup,
    smooth_bump,
    source_f,
)

# ---------------------------------------------------------------------------
# Arrhenius factor


def test_g_vanishes_for_nonpositive_temperature():
    assert arrhenius_g(-5.0, 1.0) == 0.0
    assert arrhenius_g(0.0, 1.0) == 0.0
    out = arrhenius_g(np.array([-2.0, 0.0, 1.0]), 1.0)
    np.testing.assert_allclose(out, [0.0, 0.0, np.exp(-1.0)])


def test_g_at_activation_temperature():
    for E in (1.0, 0.5, 7.3):
        np.testing.assert_allclose(arrhenius_g(E, E), np.exp(-1.0), rtol=1e-15)


def test_g_saturates_toward_one():
    for E in (1.0, 3.0):
        v = arrhenius_g(1e6 * E, E)
        assert v >= 0.999999
        assert v < 1.0  # supremum 1 is never attained at finite theta


def test_g_monotone_bounded_and_continuous_at_zero():
    E = 1.0
    theta = np.concatenate([np.linspace(-5.0, 0.0, 201),
                            np.geomspace(1e-6, 100.0 * E, 5000)])
    vals = arrhenius_g(theta, E)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals.min() == 0.0 and vals.max() < 1.0
    # right limit at 0 is 0: essentially-singular decay kills the exponential
    assert arrhenius_g(1e-6, E) < 1e-300


def _g_reference(theta, E):
    """exp(-E/theta) evaluated at every node, -inf exponent where theta <= 0."""
    th = np.asarray(theta, dtype=float)
    arg = np.full(th.shape, -np.inf)
    with np.errstate(over="ignore"):
        np.divide(-E, th, out=arg, where=th > 0.0)
    out = np.exp(arg)
    return float(out) if np.ndim(theta) == 0 else out


SPECIAL_THETAS = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -1.0, -1e300,
                  1e-300, 1.0, 1e300]


@pytest.mark.parametrize("E", [1.0, 0.37, 7.3, 1e-3, 1e5, 1e300, 400 * 5e-324, 2.5e-306])
def test_g_matches_the_every_node_formula_bitwise(E):
    # theta within 200 ulps either side of the cut E/745.5, then E/theta
    # across [740, 750], where exp(-E/theta) leaves 0, then log-uniform theta
    # over 628 decades, then special values
    cut = E / 745.5
    near = [cut]
    for direction in (np.inf, -np.inf):
        t = cut
        for _ in range(200):
            t = np.nextafter(t, direction)
            near.append(t)
    spread = 10.0 ** np.random.default_rng(3).uniform(-320.0, 308.0, 20000)
    across = E / np.linspace(740.0, 750.0, 2001)
    theta = np.concatenate([near, across, spread, SPECIAL_THETAS])
    assert np.any(_g_reference(theta, E) > 0.0)
    assert arrhenius_g(theta, E).tobytes() == _g_reference(theta, E).tobytes()
    block = theta[: 3 * 401 * 2].reshape(3, 2, 401)  # a block of time slices
    assert arrhenius_g(block, E).tobytes() == _g_reference(block, E).tobytes()
    for t in near[::50] + SPECIAL_THETAS:
        for scalar in (t, np.float64(t), np.array(t)):
            got, want = arrhenius_g(scalar, E), _g_reference(scalar, E)
            assert type(got) is float
            assert np.array([got]).tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("E", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_g_rejects_nonpositive_or_nonfinite_E(E):
    with pytest.raises(ValueError, match="positive and finite"):
        arrhenius_g(1.0, E)


@pytest.mark.parametrize("E", [np.nan, np.inf, -np.inf])
def test_g_prime_and_params_reject_nonfinite_E(E):
    # the rule g applies above, "E positive and finite"
    with pytest.raises(ValueError, match="positive and finite"):
        arrhenius_g_prime(1.0, E)
    with pytest.raises(ValueError, match="positive and finite"):
        LayerParams.constants(make_grid(0.0, 1.0, 5), 2, E=E)


def test_g_prime_zero_for_nonpositive_temperature():
    assert arrhenius_g_prime(-1.0, 2.0) == 0.0
    assert arrhenius_g_prime(0.0, 2.0) == 0.0


def test_g_prime_peak_location_and_value():
    # maximize (E/theta^2) e^{-E/theta}: stationary at theta = E/2
    for E in (1.0, 2.5):
        peak = arrhenius_g_prime(E / 2.0, E)
        np.testing.assert_allclose(peak, 4.0 * np.exp(-2.0) / E, rtol=1e-14)
        np.testing.assert_allclose(g_prime_sup(E), peak, rtol=1e-14)
    np.testing.assert_allclose(arrhenius_g_prime(0.5, 1.0), 0.541341, atol=1e-6)


def test_g_prime_sup_matches_dense_scan():
    E = 1.0
    theta = np.geomspace(1e-3, 100.0 * E, 200001)
    scan = arrhenius_g_prime(theta, E).max()
    assert abs(scan - g_prime_sup(E)) <= 1e-6


def test_theta_times_g_lipschitz_constant():
    # |d/dtheta (theta g)| = |g + theta g'| stays below 1/e + 1 everywhere
    E = 1.0
    theta = np.geomspace(1e-3, 1e4, 100000)
    vals = np.abs(arrhenius_g(theta, E) + theta * arrhenius_g_prime(theta, E))
    assert vals.max() <= np.exp(-1.0) + 1.0


def test_g_prime_near_singular_temperatures_stay_finite():
    out = arrhenius_g_prime(np.array([1e-300, 1e-10, 1e300]), 1.0)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 0.0


# ---------------------------------------------------------------------------
# coefficient fields


def _fuel_ones(n, m):
    return np.ones((n, m))


def test_coefficients_without_fuel_capacity():
    g = make_grid(0.0, 1.0, 11)
    p = LayerParams.constants(g, 2, a=2.0, b=0.0, c=3.0, lam=4.0)
    alpha, beta = coefficient_fields(p, _fuel_ones(2, 11))
    np.testing.assert_allclose(alpha, 2.0)
    np.testing.assert_allclose(beta, 1.5)


def test_coefficients_hand_case():
    g = make_grid(0.0, 1.0, 11)
    p = LayerParams.constants(g, 2, a=1.0, b=1.0, c=3.0, lam=2.0)
    alpha, beta = coefficient_fields(p, _fuel_ones(2, 11))
    np.testing.assert_allclose(alpha, 1.0)
    np.testing.assert_allclose(beta, 1.5)


def test_diffusion_decreases_with_fuel():
    g = make_grid(0.0, 1.0, 21)
    p = LayerParams.constants(g, 2, a=1.0, b=0.7, lam=1.3)
    rng = np.random.default_rng(2)
    y1 = rng.uniform(0.0, 0.5, (2, 21))
    y2 = y1 + rng.uniform(0.0, 0.5, (2, 21))
    a1, _ = coefficient_fields(p, y1)
    a2, _ = coefficient_fields(p, y2)
    assert np.all(a2 <= a1)


def test_uniform_parabolicity_bounds():
    g = make_grid(0.0, 1.0, 31)
    rng = np.random.default_rng(4)
    k1, k2 = 0.5, 2.0
    for _ in range(20):
        p = LayerParams(
            a=rng.uniform(k1, k2, (2, 31)), b=rng.uniform(0.0, k2, (2, 31)),
            c=rng.uniform(0.0, k2, (2, 31)), c_x=np.zeros((2, 31)),
            d=np.zeros((2, 31)), lam=rng.uniform(k1, k2, (2, 31)),
            K=np.zeros((2, 31)), A=np.zeros((2, 31)), q=np.zeros((1, 31)),
            qhat1=np.zeros(31), qhat2=np.zeros(31), u_e=0.0, E=1.0,
        )
        y = rng.uniform(0.0, 1.0, (2, 31))
        alpha, _ = coefficient_fields(p, y)
        assert alpha.min() >= k1 / (k2 + k2 * 1.0) - 1e-15
        assert alpha.max() <= k2 / k1 + 1e-15


def test_coefficients_reject_vanishing_capacity():
    g = make_grid(0.0, 1.0, 11)
    p = LayerParams.constants(g, 2, a=0.5, b=0.0)
    y = np.ones((2, 11))
    p.a[...] = 0.0
    with pytest.raises(ValueError):
        coefficient_fields(p, y)


# ---------------------------------------------------------------------------
# source term


def test_source_vanishes_without_data():
    g = make_grid(-1.0, 1.0, 21)
    p = LayerParams.constants(g, 3, a=1.0, d=2.0, K=1.0)
    y = np.zeros((3, 21))
    rng = np.random.default_rng(6)
    u = rng.standard_normal((3, 21))
    np.testing.assert_array_equal(source_f(p, y, u), np.zeros((3, 21)))


def test_source_vanishes_at_equilibrium():
    g = make_grid(-1.0, 1.0, 21)
    p = LayerParams.constants(g, 3, a=1.0, q=0.4, qhat1=0.2, qhat2=0.1, u_e=0.7)
    y = np.zeros((3, 21))
    u = np.full((3, 21), p.u_e)
    np.testing.assert_array_equal(source_f(p, y, u), np.zeros((3, 21)))


def test_source_two_layer_hand_case():
    # exchange pulls layer 1 down by 2E and pushes layer 2 up by 2E;
    # only the hot layer reacts, at g(2E) = e^{-1/2}
    for E in (1.0, 0.7):
        g = make_grid(0.0, 1.0, 11)
        p = LayerParams.constants(g, 2, a=1.0, b=0.0, d=1.0, K=0.0, q=1.0, E=E)
        y = np.ones((2, 11))
        u = np.stack([np.full(11, 2.0 * E), np.zeros(11)])
        f = source_f(p, y, u)
        np.testing.assert_allclose(f[0], np.exp(-0.5) - 2.0 * E, rtol=1e-14)
        np.testing.assert_allclose(f[1], 2.0 * E, rtol=1e-14)


def test_source_interior_layer_two_sided_coupling():
    # three constant layers: middle layer sees q1*(u1-u2) + q2*(u3-u2)
    g = make_grid(0.0, 1.0, 5)
    p = LayerParams.constants(g, 3, a=1.0, q=0.5)
    y = np.zeros((3, 5))
    u = np.stack([np.full(5, 1.0), np.full(5, 4.0), np.full(5, 2.0)])
    f = source_f(p, y, u)
    np.testing.assert_allclose(f[1], 0.5 * (1.0 - 4.0) + 0.5 * (2.0 - 4.0))


def test_source_on_stacked_time_slices_matches_each_slice():
    # a (K, n, m) stack evaluates bit for bit as K separate (n, m) calls,
    # including the interior-layer branch (n = 3), u <= 0 and -0.0
    g = make_grid(-2.0, 2.0, 17)
    rng = np.random.default_rng(12)
    for n in (2, 3):
        p = LayerParams.constants(g, n, a=1.0, b=0.4, c=0.3, d=0.8, K=0.2,
                                  q=0.15, qhat1=0.1, qhat2=0.05, u_e=0.2, E=0.9)
        for name in ("a", "b", "c_x", "d", "K", "q", "qhat1", "qhat2"):
            arr = getattr(p, name)
            arr *= rng.uniform(0.5, 1.5, arr.shape)
        y = rng.uniform(0.0, 1.0, (6, n, g.m))
        u = rng.standard_normal((6, n, g.m))
        u[1] = -0.0
        u[2, :, ::3] = 0.0
        u[3, 0, :5] = -0.0
        stacked = source_f(p, y, u)
        ref = np.stack([source_f(p, y[k], u[k]) for k in range(6)])
        assert stacked.shape == (6, n, g.m)
        assert np.array_equal(stacked, ref)
        assert np.array_equal(np.signbit(stacked), np.signbit(ref))


def test_source_lipschitz_on_ball():
    # property backing the fixed-point argument: f is kappa-Lipschitz on the
    # ball, with kappa computed from coefficient sups and the g bounds
    from layerburn.hypothesis import lipschitz_kappa

    problem, T = shipped_problem("reactive_two_layer", m=101)
    p, grid = problem.params, problem.grid
    fuel = GriddedFuel(problem.fuel, grid)
    rho = 2.0
    kap = lipschitz_kappa(p, fuel, rho, (0.0, T))
    y = fuel.sample(0.0)
    rng = np.random.default_rng(8)
    for _ in range(200):
        v = rng.standard_normal((2, grid.m))
        w = rng.standard_normal((2, grid.m))
        v *= rho * rng.uniform() / max(l2_norm(TemperatureField(v, grid)), 1e-30)
        w *= rho * rng.uniform() / max(l2_norm(TemperatureField(w, grid)), 1e-30)
        fv = source_f(p, y, v)
        fw = source_f(p, y, w)
        lhs = float(np.max(layer_l2(fv - fw, grid.dx)))
        rhs = kap * float(np.max(layer_l2(v - w, grid.dx)))
        assert lhs <= rhs * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# fuel families and the coupled-fuel step


def test_constant_fuel_is_all_ones():
    g = make_grid(-2.0, 2.0, 17)
    spec = PrescribedFuel([ConstantFuel(1.0), ConstantFuel(1.0)])
    for t in (0.0, 0.3, 12.0):
        np.testing.assert_array_equal(spec.sample(g, t), 1.0)


def test_logistic_front_midpoint():
    g = make_grid(-5.0, 5.0, 101)
    fam = LogisticFrontFuel(0.0, 1.0, 1.0)
    spec = PrescribedFuel([fam, fam])
    y0 = spec.sample(g, 0.0)
    mid = np.argmin(np.abs(g.x))
    np.testing.assert_allclose(y0[:, mid], 0.5, rtol=1e-14)
    # the half-level point travels with the front speed
    y1 = spec.sample(g, 1.0)
    at_front = np.argmin(np.abs(g.x - 1.0))
    np.testing.assert_allclose(y1[:, at_front], 0.5, rtol=1e-12)


def test_gaussian_decay_peak_factor():
    g = make_grid(-5.0, 5.0, 101)
    fam = GaussianDecayFuel(0.0, 1.5, 0.8)
    spec = PrescribedFuel([fam])
    y0 = spec.sample(g, 0.0)
    yt = spec.sample(g, 2.0)
    np.testing.assert_allclose(yt, np.exp(-0.8 * 2.0) * y0, rtol=1e-14)


def test_prescribed_fuel_rejects_out_of_range():
    # the audit's H2 check is what refuses prescribed fuel outside [0, 1]
    g = make_grid(-1.0, 1.0, 11)
    for level, message in ((1.5, "fuel exceeds 1"), (-0.1, "fuel takes negative values")):
        h2 = check_H2(GriddedFuel(PrescribedFuel([ConstantFuel(level)]), g), 1.0)
        assert not h2.ok
        assert any(v.startswith(message) for v in h2.violations)


def test_time_envelopes_bracket_samples():
    g = make_grid(-5.0, 5.0, 101)
    spec = PrescribedFuel([
        LogisticFrontFuel(0.5, -0.7, 1.3),
        GaussianDecayFuel(-1.0, 2.0, 0.4),
        ConstantFuel(0.6),
    ])
    t0, t1 = 0.2, 1.7
    lo, hi = spec.envelope(g, t0, t1)
    for t in np.linspace(t0, t1, 23):
        y = spec.sample(g, t)
        assert np.all(y >= lo - 1e-14) and np.all(y <= hi + 1e-14)


def test_fuel_step_inert_below_ignition():
    g = make_grid(-1.0, 1.0, 11)
    p = LayerParams.constants(g, 2, A=3.0)
    y = np.full((2, 11), 0.8)
    u = -np.ones((2, 2, 11))  # one step between two cold states
    out = fuel_step(y, u, p, 0.5)
    assert out.shape == (2, 2, 11)
    np.testing.assert_array_equal(out, np.stack([y, y]))


def test_fuel_step_halving_time():
    # A*g(u)*dt = ln 2 halves the fuel: u = E gives g = 1/e, so dt = e*ln 2
    g = make_grid(-1.0, 1.0, 11)
    p = LayerParams.constants(g, 2, A=1.0, E=1.0)
    y = np.full((2, 11), 0.9)
    u = np.ones((2, 2, 11))
    out = fuel_step(y, u, p, np.e * np.log(2.0))
    np.testing.assert_array_equal(out[0], y)
    np.testing.assert_allclose(out[1], 0.45, rtol=1e-14)


def test_fuel_step_monotone_and_fixed_at_zero():
    g = make_grid(-1.0, 1.0, 31)
    p = LayerParams.constants(g, 2, A=2.0)
    rng = np.random.default_rng(10)
    y = rng.uniform(0.0, 1.0, (2, 31))
    y[0, :5] = 0.0
    u = rng.standard_normal((6, 2, 31))
    out = fuel_step(y, u, p, 0.3)
    assert np.all(np.diff(out, axis=0) <= 0.0)
    assert np.all(out >= 0.0)
    np.testing.assert_array_equal(out[:, 0, :5], 0.0)
    with pytest.raises(ValueError):
        fuel_step(y, u, p, -0.1)


def test_tabulated_fuel_interpolates_and_clamps():
    g = make_grid(0.0, 1.0, 5)
    table = np.stack([np.full((2, 5), 1.0), np.full((2, 5), 0.5)])
    fuel = TabulatedFuel(np.array([0.0, 1.0]), table)
    np.testing.assert_allclose(fuel.sample(g, 0.5), 0.75)
    np.testing.assert_allclose(fuel.sample(g, -1.0), 1.0)
    np.testing.assert_allclose(fuel.sample(g, 2.0), 0.5)
    lo, hi = fuel.envelope(g, 0.0, 1.0)
    np.testing.assert_allclose(lo, 0.5)
    np.testing.assert_allclose(hi, 1.0)


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def _tabulated_scalar_reference(fuel, t):
    """TabulatedFuel's scalar interpolation before it became the one-time array case."""
    ts = fuel.times
    if t <= ts[0]:
        return fuel.table[0].copy()
    if t >= ts[-1]:
        return fuel.table[-1].copy()
    k = int(np.searchsorted(ts, t))
    w = (t - ts[k - 1]) / (ts[k] - ts[k - 1])
    return (1.0 - w) * fuel.table[k - 1] + w * fuel.table[k]


def test_scalar_tabulated_sample_equals_scalar_reference():
    # before the first node, on nodes, between nodes, after the last node
    g = make_grid(-5.0, 5.0, 41)
    rng = np.random.default_rng(13)
    table = rng.uniform(-1.0, 1.0, (4, 3, g.m))
    table[0, 2, :5] = -0.0
    table[-1, 0, :5] = -0.0
    table[1, 1, :5] = -0.0
    fuels = [TabulatedFuel(np.array([0.1, 0.25, 0.3, 0.7]), table),
             TabulatedFuel([0.4], table[:1])]
    times = [-1.0, 0.0, 0.1, 0.17, 0.25, 0.26, 0.3, 0.4, 0.5, 0.7, 0.71, 3.0]
    for fuel in fuels:
        for t in times:
            _assert_bitwise(fuel.sample(g, t), _tabulated_scalar_reference(fuel, t))


def test_array_time_sample_equals_stacked_scalar_samples():
    # every fuel class: one sample call at k times equals k scalar samples,
    # values and signs of zeros both
    g = make_grid(-5.0, 5.0, 41)
    rng = np.random.default_rng(12)
    prescribed = PrescribedFuel([
        LogisticFrontFuel(0.5, -0.7, 1.3),
        GaussianDecayFuel(-1.0, 2.0, 0.4),
        ConstantFuel(-0.0),
        ConstantFuel(1),
    ])
    table_times = np.array([0.1, 0.25, 0.3, 0.7])
    table = rng.uniform(-1.0, 1.0, (4, 3, g.m))
    # signed zeros on the end nodes next to positive values on their neighbours
    table[0, 2, :5] = -0.0
    table[-1, 2, :5] = 0.5
    table[-1, 0, :5] = -0.0
    table[-2, 0, :5] = 0.5
    table[1, 0, :5] = -0.0
    table[2, 1, :5] = 0.0
    tabulated = TabulatedFuel(table_times, table)
    single = TabulatedFuel([0.4], table[:1])
    direction = rng.standard_normal((4, g.m))
    # before the first node, on nodes, between nodes, after the last node
    times = np.array([-1.0, 0.0, 0.1, 0.17, 0.25, 0.26, 0.3, 0.5, 0.7, 0.71, 3.0])
    fuels = [
        prescribed,
        tabulated,
        single,
        PerturbedFuel(prescribed, direction, 0.3),
        PerturbedFuel(tabulated, direction[:3], -0.25),
    ]
    for fuel in fuels:
        ref = np.stack([fuel.sample(g, float(t)) for t in times])
        _assert_bitwise(fuel.sample(g, times), ref)
        _assert_bitwise(fuel.sample(g, times[5:6]), ref[5:6])
    # a gridded fuel samples and bounds the spec on the grid it stores
    for spec in (prescribed, tabulated):
        gridded = GriddedFuel(spec, g)
        _assert_bitwise(gridded.sample(times),
                        np.stack([spec.sample(g, float(t)) for t in times]))
        for got, ref in zip(gridded.envelope(0.1, 0.5), spec.envelope(g, 0.1, 0.5)):
            _assert_bitwise(got, ref)


# ---------------------------------------------------------------------------
# helpers


def test_smooth_bump_support_and_peak():
    x = np.linspace(-3.0, 3.0, 301)
    b = smooth_bump(x, 0.5, 1.0)
    assert b[np.argmin(np.abs(x - 0.5))] == 1.0
    assert np.all(b[np.abs(x - 0.5) >= 1.0] == 0.0)
    assert np.all(b >= 0.0) and np.all(b <= 1.0)


def test_central_gradient_exact_on_linear():
    g = make_grid(0.0, 2.0, 21)
    vals = np.stack([3.0 * g.x + 1.0, -0.5 * g.x])
    grad = central_gradient(vals, g.dx)
    np.testing.assert_allclose(grad[0], 3.0, rtol=1e-12)
    np.testing.assert_allclose(grad[1], -0.5, rtol=1e-12)
