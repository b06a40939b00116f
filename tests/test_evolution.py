"""Theta-scheme step operators: steady states, kernels, composition laws,
scheme switching, and the conservative boundary closure."""

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrs

from conftest import constant_problem, random_field
from layerburn.evolution import (
    GriddedFuel,
    Propagator,
    build_propagator,
    build_propagators,
    generator_apply,
    generator_bands,
    steps_per_block,
)
from layerburn.grid import TemperatureField, l2_norm, make_grid
from layerburn.model import (
    ConstantFuel,
    GaussianDecayFuel,
    LayerParams,
    PrescribedFuel,
    TabulatedFuel,
)


def _setup(m=201, span=(-10.0, 10.0), fuel_val=1.0, **params):
    prob = constant_problem(m=m, span=span, fuel_val=fuel_val, **params)
    return prob.params, GriddedFuel(prob.fuel, prob.grid), prob.grid


def _generator(p, fuel, t, scheme="auto"):
    """Tridiagonals of L_h(t), shape (n, 3, m), from the fuel sampled at t."""
    return generator_bands(p, fuel.sample(fuel.grid, t), fuel.grid.dx, scheme)


def _march(p, fuel, times, values, theta=0.5):
    """Apply the step operators of a time lattice in turn."""
    for prop in build_propagators(p, fuel, times, theta):
        values = prop.apply_values(values)
    return values


def test_zero_length_step_is_identity():
    # a dt = 0 step has the bands and LU factors of the identity, so it and
    # its adjoint apply as the identity for every theta and scheme
    p, fuel, grid = _setup(b=0.2, c=0.4, fuel_val=0.8)
    rng = np.random.default_rng(0)
    v = random_field(grid, 2, rng)
    for theta in (0.0, 0.5, 0.7, 1.0):
        for scheme in ("auto", "upwind"):
            prop = build_propagators(p, fuel, [0.3, 0.3], theta, scheme)[0]
            np.testing.assert_array_equal(prop.apply_values(v), v)
            np.testing.assert_array_equal(prop.apply_transpose_values(v), v)


def test_constant_field_is_steady():
    # conservative closure: both stencil factors annihilate constants, so a
    # constant survives the solve to machine precision
    p, fuel, grid = _setup(a=1.3, b=0.4, c=0.7, lam=0.9, fuel_val=0.6)
    prop = build_propagator(p, fuel, 0.0, 0.01)
    ones = np.ones((2, grid.m))
    out = prop.apply_values(3.7 * ones)
    np.testing.assert_allclose(out, 3.7, rtol=0.0, atol=1e-13)


def test_generator_annihilates_constants():
    # pure diffusion: row sums cancel exactly; with advection the two stencil
    # halves round independently, leaving scaled machine epsilon
    p0, fuel, grid = _setup(a=1.0, lam=0.8)
    tri = _generator(p0, fuel, 0.0)
    assert np.all(generator_apply(tri, np.ones((2, grid.m))) == 0.0)

    p, fuel, grid = _setup(a=1.1, b=0.3, c=1.7, lam=0.8, fuel_val=0.5)
    for scheme in ("auto", "central", "upwind"):
        tri = _generator(p, fuel, 0.0, scheme)
        out = generator_apply(tri, np.ones((2, grid.m)))
        scale = float(np.max(np.abs(tri[:, 1])))
        assert np.max(np.abs(out)) <= 1e-14 * scale


def test_generator_matches_derivatives_on_quadratic():
    # central interior stencil is exact on quadratics: L u = -2 alpha + 2 beta x
    p, fuel, grid = _setup(a=2.0, c=1.0, lam=3.0)
    alpha, beta = 1.5, 0.5
    tri = _generator(p, fuel, 0.0)
    u = np.tile(grid.x**2, (2, 1))
    out = generator_apply(tri, u)
    expect = -2.0 * alpha + 2.0 * beta * grid.x
    np.testing.assert_allclose(out[:, 1:-1], np.tile(expect, (2, 1))[:, 1:-1],
                               rtol=1e-11, atol=1e-11)


def test_step_linearity():
    p, fuel, grid = _setup(b=0.2, c=0.4, fuel_val=0.8)
    prop = build_propagator(p, fuel, 0.0, 0.02)
    rng = np.random.default_rng(1)
    u = random_field(grid, 2, rng)
    v = random_field(grid, 2, rng)
    c = -1.7
    lhs = prop.apply_values(u + c * v)
    rhs = prop.apply_values(u) + c * prop.apply_values(v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_heat_kernel_variance_growth():
    # pure diffusion alpha=1 spreads a Gaussian: var(t) = s^2 + 2t
    prob = constant_problem(m=961, span=(-12.0, 12.0), a=1.0, lam=1.0)
    grid = prob.grid
    s2 = 0.04
    u0 = np.tile(np.exp(-grid.x**2 / (2.0 * s2)), (2, 1))
    fuel = GriddedFuel(prob.fuel, grid)
    w = _march(prob.params, fuel, 0.001 * np.arange(101), u0)[0]
    var = float(np.sum(grid.x**2 * w) / np.sum(w))
    assert abs(var - (s2 + 0.2)) <= 0.01 * (s2 + 0.2)


def test_implicit_upwind_max_principle():
    p, fuel, grid = _setup(a=1.0, c=2.5, lam=0.4)
    prop = build_propagator(p, fuel, 0.0, 0.05, theta=1.0, scheme="upwind")
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = random_field(grid, 2, rng)
        out = prop.apply_values(v)
        assert out.max() <= v.max() + 1e-12
        assert out.min() >= v.min() - 1e-12


def test_split_composition_is_bitwise_exact():
    # sub-step endpoints are computed on the same lattice, so splitting at one
    # of them reproduces the composed result bit for bit
    grid = make_grid(-10.0, 10.0, 201)
    p = LayerParams.constants(grid, 2, a=1.0, b=0.5, c=0.3, lam=1.0)
    fuel = GriddedFuel(PrescribedFuel([GaussianDecayFuel(0.0, 2.0, 0.9)] * 2), grid)
    rng = np.random.default_rng(3)
    u0 = random_field(grid, 2, rng)
    times = np.array([0.0, 0.125, 0.25])
    whole = _march(p, fuel, times, u0)
    second = _march(p, fuel, times[1:], _march(p, fuel, times[:2], u0))
    np.testing.assert_array_equal(whole, second)


def test_time_refinement_order():
    # theta = 1/2 with midpoint-frozen coefficients is second order in dt
    grid = make_grid(-10.0, 10.0, 201)
    p = LayerParams.constants(grid, 2, a=1.0, b=0.5, c=0.4, lam=1.0)
    fuel = GriddedFuel(PrescribedFuel([GaussianDecayFuel(0.0, 2.0, 0.7)] * 2), grid)
    u0 = np.tile(np.exp(-grid.x**2), (2, 1))
    T = 0.2
    outs = [_march(p, fuel, T / n * np.arange(n + 1), u0) for n in (8, 16, 32)]
    g1 = l2_norm(TemperatureField(outs[0] - outs[1], grid))
    g2 = l2_norm(TemperatureField(outs[1] - outs[2], grid))
    order = np.log2(g1 / g2)
    assert order >= 1.8


def test_strong_continuity_in_dt():
    # one step converges to the identity linearly in dt on smooth data
    p, fuel, grid = _setup(a=1.0, c=0.5)
    u0 = np.tile(np.exp(-grid.x**2), (2, 1))
    field = TemperatureField(u0, grid)
    dts = [0.02, 0.01, 0.005, 0.0025]
    gaps = []
    for dt in dts:
        prop = build_propagator(p, fuel, 0.0, dt)
        moved = prop.apply_values(u0)
        gaps.append(l2_norm(TemperatureField(moved - u0, grid)))
    rates = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    assert all(r >= 1.9 for r in rates)  # halving dt at least halves the gap
    assert gaps[-1] < gaps[0]


def test_scheme_switch_threshold():
    # cell Peclet |beta| dx / alpha <= 2 keeps the central stencil; beyond it
    # the auto scheme must match the upwind rows node by node, both in the
    # generator and in the explicit bands of the step operator built from it
    # (flat (3, n*m) bands, read per layer as (n, 3, m))
    grid = make_grid(0.0, 1.0, 51)
    p = LayerParams.constants(grid, 2, a=1.0, c=1.0, lam=1.0)
    p.c[0, :25] = 150.0  # cell Peclet 3 in the first half of layer 1
    fuel = GriddedFuel(PrescribedFuel([ConstantFuel(1.0)] * 2), grid)
    p_central = LayerParams.constants(grid, 2, a=1.0, c=1.0, lam=1.0)

    def exp_per_layer(q, scheme):
        exp = build_propagator(q, fuel, 0.0, 1e-3, scheme=scheme).exp
        return exp.reshape(3, 2, grid.m).swapaxes(0, 1)

    for bands in (
        lambda q, scheme: _generator(q, fuel, 0.0, scheme),
        exp_per_layer,
    ):
        auto, up, cen = bands(p, "auto"), bands(p, "upwind"), bands(p_central, "central")
        np.testing.assert_array_equal(auto[0][:, 2:24], up[0][:, 2:24])
        np.testing.assert_array_equal(auto[0][:, 26:-1], cen[0][:, 26:-1])
        np.testing.assert_array_equal(auto[1][:, 1:-1], cen[1][:, 1:-1])


def test_forced_central_guards_diagonal_dominance():
    grid = make_grid(0.0, 1.0, 51)
    p = LayerParams.constants(grid, 2, a=1.0, c=200.0, lam=0.01)
    fuel = GriddedFuel(PrescribedFuel([ConstantFuel(1.0)] * 2), grid)
    with pytest.raises(ValueError):
        build_propagator(p, fuel, 0.0, 0.5, scheme="central")


def test_transpose_is_the_adjoint():
    # <P u, v> == <u, P^T v> layer by layer for the variable-coefficient stencil
    rng = np.random.default_rng(4)
    for n in (2, 4):
        p, fuel, grid = _setup(m=101, n=n, a=1.2, b=0.3, c=0.9, lam=0.7, fuel_val=0.5)
        prop = build_propagator(p, fuel, 0.0, 0.01)
        for _ in range(10):
            u = rng.standard_normal((n, grid.m))
            v = rng.standard_normal((n, grid.m))
            lhs = np.sum(prop.apply_values(u) * v, axis=1)
            rhs = np.sum(u * prop.apply_transpose_values(v), axis=1)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def _variable_params(grid, n):
    """n layers whose coefficients vary by node and layer."""
    x = grid.x
    layer = np.arange(1, n + 1)[:, None]
    p = LayerParams.constants(grid, n, a=1.0, b=0.3, c=0.5, lam=1.0)
    p.a[:] = 1.0 + 0.3 * np.cos(0.7 * x + layer)
    p.lam[:] = 0.6 + 0.2 * layer + 0.1 * np.sin(x)
    p.c[:] = 0.5 + 0.4 * np.sin(0.3 * layer * x)
    return p


def _variable_kernel_case(n=4, m=64, theta=0.5):
    """Step operator on n layers with coefficients that vary by node and layer."""
    grid = make_grid(-10.0, 10.0, m)
    p = _variable_params(grid, n)
    fuel = GriddedFuel(PrescribedFuel([GaussianDecayFuel(0.5 * k, 2.0, 0.9)
                                       for k in range(n)]), grid)
    t0, t1 = 0.1, 0.15
    prop = build_propagator(p, fuel, t0, t1, theta)
    gen = _generator(p, fuel, 0.5 * (t0 + t1))  # frozen at the midpoint
    return prop, gen, theta * (t1 - t0), (1.0 - theta) * (t1 - t0)


def _dense(sub, main, sup):
    return np.diag(main) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)


def test_stacked_kernel_matches_dense_per_layer_solve():
    prop, gen, w_imp, w_exp = _variable_kernel_case()
    n, m = gen.shape[0], gen.shape[2]
    rng = np.random.default_rng(5)
    v = rng.standard_normal((n, m))
    fwd = prop.apply_values(v)
    adj = prop.apply_transpose_values(v)
    for i in range(n):
        L = _dense(*gen[i])
        A = np.eye(m) + w_imp * L
        B = np.eye(m) - w_exp * L
        # relative to the layer's norm: entries near zero carry the rounding
        # of the whole row, so an entrywise relative bound is not meaningful
        for got, ref in ((fwd[i], np.linalg.solve(A, B @ v[i])),
                         (adj[i], B.T @ np.linalg.solve(A.T, v[i]))):
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_stacked_kernel_equals_per_layer_banded_reference():
    # one banded LU per layer, as the kernel did before the layers were stacked
    prop, gen, w_imp, w_exp = _variable_kernel_case()
    n, m = gen.shape[0], gen.shape[2]
    rng = np.random.default_rng(6)
    v = rng.standard_normal((n, m))

    def tri_mul(sub, main, sup, u):
        out = main * u
        out[:-1] += sup[:-1] * u[1:]
        out[1:] += sub[1:] * u[:-1]
        return out

    def banded(sub, main, sup):
        ab = np.zeros((3, m))
        ab[0, 1:] = sup[:-1]
        ab[1] = main
        ab[2, :-1] = sub[1:]
        return ab

    def transpose(sub, main, sup):
        return np.r_[0.0, sup[:-1]], main, np.r_[sub[1:], 0.0]

    fwd = prop.apply_values(v)
    adj = prop.apply_transpose_values(v)
    for i in range(n):
        sub, main, sup = gen[i]
        imp = (w_imp * sub, 1.0 + w_imp * main, w_imp * sup)
        exp = (-w_exp * sub, 1.0 - w_exp * main, -w_exp * sup)
        ref = solve_banded((1, 1), banded(*imp), tri_mul(*exp, v[i]))
        assert np.array_equal(fwd[i], ref)
        # the adjoint solves with the transposed LU factors, not a fresh LU of
        # the transposed matrix, so it agrees to rounding rather than bitwise
        z = solve_banded((1, 1), banded(*transpose(*imp)), v[i])
        ref_t = tri_mul(*transpose(*exp), z)
        assert np.linalg.norm(adj[i] - ref_t) <= 1e-13 * np.linalg.norm(ref_t)


def test_stacked_layers_are_decoupled_at_the_seams():
    prop, gen, _, _ = _variable_kernel_case()
    n, m = gen.shape[0], gen.shape[2]
    rng = np.random.default_rng(7)
    v = rng.standard_normal((n, m))
    for apply in (prop.apply_values, prop.apply_transpose_values):
        base = apply(v)
        for i in range(n):
            moved = v.copy()
            moved[i] += rng.standard_normal(m)
            out = apply(moved)
            others = np.arange(n) != i
            assert np.array_equal(out[others], base[others])
            assert not np.array_equal(out[i], base[i])


def _per_layer_apply(prop, v, transpose=False):
    """apply_values (or its adjoint) with the explicit product taken per layer."""
    n, m = v.shape
    sub, main, sup = prop.exp.reshape(3, n, m)
    if transpose:
        z, _ = dgttrs(*prop.lu, v.ravel(), trans="T")
        z = z.reshape(n, m)
        out = main * z
        out[:, :-1] += sub[:, 1:] * z[:, 1:]
        out[:, 1:] += sup[:, :-1] * z[:, :-1]
        return out
    rhs = main * v
    rhs[:, :-1] += sup[:, :-1] * v[:, 1:]
    rhs[:, 1:] += sub[:, 1:] * v[:, :-1]
    x, _ = dgttrs(*prop.lu, rhs.ravel())
    return x.reshape(n, m)


def test_flat_band_apply_equals_per_layer_reference():
    # the flat bands also multiply across the layer seams, by zero entries;
    # signed zeros and large values on both sides of every seam must leave
    # each layer's result as the per-layer product gives it
    n, m = 3, 64
    prop, _, _, _ = _variable_kernel_case(n=n, m=m)
    sub, _, sup = prop.exp
    seams_lo = np.arange(1, n) * m  # first node of layers 2..n
    assert np.all(sub[seams_lo] == 0.0) and np.all(sup[seams_lo - 1] == 0.0)
    rng = np.random.default_rng(8)
    seam = np.zeros((n, m), dtype=bool)
    seam[:, [0, 1, -2, -1]] = True
    fills = [np.array([0.0, -0.0, 0.0, -0.0]), np.array([-0.0, -0.0, 0.0, 0.0]),
             np.array([1e300, -1e300, 3e299, -7e299]), np.array([-0.0, 5e299, -1e300, 0.0])]
    for fill in fills:
        for transpose in (False, True):
            v = rng.standard_normal((n, m))
            v[seam] = np.resize(fill, int(seam.sum()))
            apply = prop.apply_transpose_values if transpose else prop.apply_values
            got = apply(v)
            ref = _per_layer_apply(prop, v, transpose)
            assert got.shape == (n, m)
            assert np.array_equal(got, ref)
            # a zero seam product may flip the sign of an exact zero there
            keep = ~(seam & (ref == 0.0))
            assert np.array_equal(np.signbit(got[keep]), np.signbit(ref[keep]))
        # zero layers next to nonzero ones stay exactly zero
        v = np.zeros((n, m))
        v[1] = fill[0] + rng.standard_normal(m)
        for apply in (prop.apply_values, prop.apply_transpose_values):
            out = apply(v)
            assert np.all(out[[0, 2]] == 0.0)


def test_propagator_layer_count_from_grid():
    grid = make_grid(-10.0, 10.0, 33)
    for n in (2, 3, 4):
        p = LayerParams.constants(grid, n, a=1.0, c=0.5, lam=1.0)
        fuel = GriddedFuel(PrescribedFuel([ConstantFuel(1.0)] * n), grid)
        prop = build_propagator(p, fuel, 0.0, 0.01)
        assert prop.exp.shape == (3, n * grid.m)
        assert prop.n == n
        assert prop.apply_values(np.ones((n, grid.m))).shape == (n, grid.m)
    # one layer: the bands of the first layer alone
    one = Propagator(grid, 0.0, 0.01, 0.5, "auto", prop.exp[:, : grid.m].copy(), None)
    assert one.n == 1
    assert build_propagator(p, fuel, 0.2, 0.2).n == n  # a zero-length step too


def test_batched_build_equals_per_step_builds():
    # a non-uniform lattice over three blocks, tabulated fuel interpolated
    # between its own nodes, and upwinded nodes next to central ones
    n, m, theta = 4, 256, 0.7
    grid = make_grid(-10.0, 10.0, m)
    p = _variable_params(grid, n)
    p.c[:, : m // 4] *= 40.0  # cell Peclet above 2 there
    table_times = np.linspace(0.0, 0.3, 7)
    layer = np.arange(n)[None, :, None]
    table = 0.5 + 0.4 * np.sin(grid.x[None, None] + 3.0 * table_times[:, None, None] + layer)
    fuel = GriddedFuel(TabulatedFuel(table_times, table), grid)
    rng = np.random.default_rng(9)
    K = 2 * steps_per_block(n * m) + 5
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 4e-3, K))])
    props = build_propagators(p, fuel, times, theta)
    assert len(props) == K
    v = rng.standard_normal((n, m))
    for k, prop in enumerate(props):
        one = build_propagator(p, fuel, float(times[k]), float(times[k + 1]), theta)
        assert (prop.t_from, prop.t_to) == (one.t_from, one.t_to)
        assert np.array_equal(prop.exp, one.exp)
        assert len(prop.lu) == len(one.lu) == 5
        for got, ref in zip(prop.lu, one.lu):
            assert np.array_equal(got, ref)
        assert np.array_equal(prop.apply_values(v), one.apply_values(v))
        assert np.array_equal(prop.apply_transpose_values(v), one.apply_transpose_values(v))


def test_batched_build_guards_every_step():
    grid = make_grid(0.0, 1.0, 51)
    p = LayerParams.constants(grid, 2, a=1.0, c=200.0, lam=0.01)
    fuel = GriddedFuel(PrescribedFuel([ConstantFuel(1.0)] * 2), grid)
    small = 1e-4 * np.arange(3 * steps_per_block(2 * grid.m))
    props = build_propagators(p, fuel, small, scheme="central")
    assert len(props) == small.size - 1
    # a single long step after the short ones loses dominance on its own
    times = np.concatenate([small, small[-1] + 0.5 + small[:3]])
    with pytest.raises(ValueError, match="diagonal dominance"):
        build_propagator(p, fuel, float(small[-1]), float(times[small.size]),
                         scheme="central")
    with pytest.raises(ValueError, match="diagonal dominance"):
        build_propagators(p, fuel, times, scheme="central")
    with pytest.raises(ValueError, match="t_to must not precede t_from"):
        build_propagators(p, fuel, small[::-1])
    with pytest.raises(ValueError, match="theta"):
        build_propagators(p, fuel, small, theta=-0.1)


def test_propagator_rejects_bad_arguments():
    p, fuel, grid = _setup()
    with pytest.raises(ValueError):
        build_propagator(p, fuel, 0.0, 0.01, theta=1.5)
    with pytest.raises(ValueError):
        build_propagator(p, fuel, 0.1, 0.0)
