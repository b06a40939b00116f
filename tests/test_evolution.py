"""Theta-scheme step operators: steady states, kernels, composition laws,
scheme switching, and the conservative boundary closure."""

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from conftest import constant_problem, random_field, shipped_config
from layerburn import evolution
from layerburn.evolution import (
    GriddedFuel,
    Propagator,
    build_propagator,
    build_propagators,
    generator_apply,
    generator_bands,
    steps_per_block,
)
from layerburn.grid import l2_norm, make_grid, time_lattice
from layerburn.model import (
    ConstantFuel,
    GaussianDecayFuel,
    LayerParams,
    PrescribedFuel,
    TabulatedFuel,
    capacity,
)


def _setup(m=201, span=(-10.0, 10.0), fuel_val=1.0, **params):
    prob = constant_problem(m=m, span=span, fuel_val=fuel_val, **params)
    return prob.params, GriddedFuel(prob.fuel, prob.grid), prob.grid


def _generator(p, fuel, t, scheme="auto"):
    """Tridiagonals of L_h(t), shape (n, 3, m), from the fuel sampled at t."""
    return generator_bands(p, fuel.sample(t), fuel.grid.dx, scheme)


def _banded(sub, main, sup):
    """solve_banded's (3, m) layout of one tridiagonal."""
    ab = np.zeros((3, main.size))
    ab[0, 1:] = sup[:-1]
    ab[1] = main
    ab[2, :-1] = sub[1:]
    return ab


def _layer_step(tri, w_imp, theta, v, symmetric):
    """One layer's step v + (A^{-1} v - v)/theta, A = I + w_imp*L_h from the
    layer's generator bands tri (3, m), with one solve per layer: LAPACK's
    L D L^T of S = D A D^{-1}, D = diag(s), when symmetric, else a banded LU."""
    sub, main, sup = tri
    dl, d, du = w_imp * sub, 1.0 + w_imp * main, w_imp * sup
    if symmetric:
        s = np.concatenate([[1.0], np.cumprod(np.sqrt(du[:-1] / dl[1:]))])
        d, e, info = dpttrf(d, -np.sqrt(dl[1:] * du[:-1]))
        assert info == 0
        x = dpttrs(d, e, s * v)[0] / s
    else:
        x = solve_banded((1, 1), _banded(dl, d, du), v)
    return v + (x - v) / theta


def _assert_layer_steps(prop, gen, w_imp, theta, v):
    """prop applies, layer by layer, bitwise as the per-layer reference of the
    factorization it holds."""
    got = prop.apply_values(v)
    assert got.shape == v.shape
    for i in range(v.shape[0]):
        ref = _layer_step(gen[i], w_imp, theta, v[i], prop.scale is not None)
        assert np.array_equal(got[i], ref)


def _arrays(prop):
    """The arrays a Propagator holds: its factors, then its scale if it has one."""
    return prop.lu if prop.scale is None else prop.lu + (prop.scale,)


def _march(p, fuel, times, values, theta=0.5):
    """Apply the step operators of a time lattice in turn."""
    for prop in build_propagators(p, fuel, times, theta):
        values = prop.apply_values(values)
    return values


def test_zero_length_step_is_identity():
    # a dt = 0 step has the LU factors of the identity, so A^{-1} v - v is
    # exactly zero and the step applies as the identity for every admitted
    # theta and scheme; theta outside [1/2, 1] is refused
    p, fuel, grid = _setup(b=0.2, c=0.4, fuel_val=0.8)
    rng = np.random.default_rng(0)
    v = random_field(grid, 2, rng)
    for theta in (0.5, 0.7, 1.0):
        for scheme in ("auto", "upwind"):
            prop = build_propagators(p, fuel, [0.3, 0.3], theta, scheme)[0]
            np.testing.assert_array_equal(prop.apply_values(v), v)
    for theta in (0.0, 0.3, float("nan")):
        with pytest.raises(ValueError, match="theta"):
            build_propagators(p, fuel, [0.3, 0.3], theta)


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
    g1 = l2_norm(outs[0] - outs[1], grid.dx)
    g2 = l2_norm(outs[1] - outs[2], grid.dx)
    order = np.log2(g1 / g2)
    assert order >= 1.8


def test_strong_continuity_in_dt():
    # one step converges to the identity linearly in dt on smooth data
    p, fuel, grid = _setup(a=1.0, c=0.5)
    u0 = np.tile(np.exp(-grid.x**2), (2, 1))
    dts = [0.02, 0.01, 0.005, 0.0025]
    gaps = []
    for dt in dts:
        prop = build_propagator(p, fuel, 0.0, dt)
        moved = prop.apply_values(u0)
        gaps.append(l2_norm(moved - u0, grid.dx))
    rates = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    assert all(r >= 1.9 for r in rates)  # halving dt at least halves the gap
    assert gaps[-1] < gaps[0]


def test_scheme_switch_threshold():
    # cell Peclet |c| dx / lam <= 2 keeps the central stencil; beyond it
    # the auto scheme must match the upwind rows node by node in the
    # generator, and the step operator of each scheme must be bitwise the
    # per-layer step built from that scheme's generator bands
    grid = make_grid(0.0, 1.0, 51)
    p = LayerParams.constants(grid, 2, a=1.0, c=1.0, lam=1.0)
    p.c[0, :25] = 150.0  # cell Peclet 3 in the first half of layer 1
    fuel = GriddedFuel(PrescribedFuel([ConstantFuel(1.0)] * 2), grid)
    p_central = LayerParams.constants(grid, 2, a=1.0, c=1.0, lam=1.0)

    gens = {scheme: _generator(q, fuel, 0.0, scheme)
            for q, scheme in ((p, "auto"), (p, "upwind"), (p_central, "central"))}
    auto, up, cen = gens["auto"], gens["upwind"], gens["central"]
    np.testing.assert_array_equal(auto[0][:, 2:24], up[0][:, 2:24])
    np.testing.assert_array_equal(auto[0][:, 26:-1], cen[0][:, 26:-1])
    np.testing.assert_array_equal(auto[1][:, 1:-1], cen[1][:, 1:-1])

    v = np.random.default_rng(10).standard_normal((2, grid.m))
    for q, scheme in ((p, "auto"), (p, "upwind"), (p_central, "central")):
        prop = build_propagator(q, fuel, 0.0, 1e-3, scheme=scheme)
        _assert_layer_steps(prop, gens[scheme], 0.5 * 1e-3, 0.5, v)


def test_peclet_switch_does_not_depend_on_the_fuel():
    # nodes with |c| dx within 1e-12 of 2 lam take the same branch at y = 0
    # and y = 1: the switch reads lam and c, which w = a + b*y divides alike
    m = 201
    grid = make_grid(0.0, 1.0, m)
    p = LayerParams.constants(grid, 2, a=1.0, b=0.37)
    p.lam[:] = np.linspace(0.5, 2.0, m)
    p.c[:] = 2.0 * p.lam / grid.dx * (1.0 + np.linspace(-1e-12, 1e-12, m))
    p.c[1] *= -1.0
    central = []
    for y in (0.0, 1.0):
        ys = np.full((2, m), y)
        # the weighted main diagonal is 2 lam/dx^2 on a central row; an upwind
        # row adds |c|/dx, about as much again
        main = generator_bands(p, ys, grid.dx)[:, 1] * capacity(p, ys)
        central.append(main[:, 1:-1] * grid.dx**2 < 3.0 * p.lam[:, 1:-1])
    assert central[0].any() and not central[0].all()
    assert np.array_equal(central[0], central[1])


def test_forced_central_guards_diagonal_dominance():
    grid = make_grid(0.0, 1.0, 51)
    p = LayerParams.constants(grid, 2, a=1.0, c=200.0, lam=0.01)
    fuel = GriddedFuel(PrescribedFuel([ConstantFuel(1.0)] * 2), grid)
    with pytest.raises(ValueError):
        build_propagator(p, fuel, 0.0, 0.5, scheme="central")


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
    for i in range(n):
        L = _dense(*gen[i])
        A = np.eye(m) + w_imp * L
        B = np.eye(m) - w_exp * L
        # relative to the layer's norm: entries near zero carry the rounding
        # of the whole row, so an entrywise relative bound is not meaningful
        ref = np.linalg.solve(A, B @ v[i])
        assert np.linalg.norm(fwd[i] - ref) <= 1e-13 * np.linalg.norm(ref)


def test_both_kernel_paths_match_dense_per_layer_solve():
    # every layer of a step against np.linalg.solve on its dense A, within
    # 1e-12 of the layer's norm, and the path each operator takes: the
    # symmetrized dpttrs when every off-diagonal pair is negative and the
    # scale stays in the float range, else the general dgttrs
    smooth = make_grid(-10.0, 10.0, 64)
    varied = _variable_params(smooth, 3)
    varied.c[:, :16] *= 40.0  # cell Peclet above 2 there
    decay = PrescribedFuel([GaussianDecayFuel(0.5 * k, 2.0, 0.9) for k in range(3)])
    fine = make_grid(0.0, 1.0, 65)  # dx = 2**-6, alpha = 1: cell Peclet c/64
    long = make_grid(0.0, 1.0, 1025)
    steady = PrescribedFuel([ConstantFuel(1.0)] * 2)

    def const(grid, c):
        return LayerParams.constants(grid, 2, a=1.0, c=c, lam=1.0)

    cases = [  # grid, params, fuel, scheme, dt, theta, symmetric
        (smooth, varied, decay, "auto", 0.05, 0.5, True),
        (smooth, varied, decay, "upwind", 0.05, 0.7, True),
        (smooth, _variable_params(smooth, 3), decay, "central", 0.05, 1.0, True),
        # forced central at cell Peclet 3: one off-diagonal positive, margin 0.59
        (fine, const(fine, 192.0), steady, "central", 2e-4, 0.5, False),
        # forced central at cell Peclet exactly 2: sup is exactly zero
        (fine, const(fine, 128.0), steady, "central", 2e-4, 0.7, False),
        # anti-diffusion (lam < 0, which the audit refuses): both off-diagonals
        # of every pair are positive
        (fine, LayerParams.constants(fine, 2, a=1.0, lam=-1.0), steady, "auto", 2e-5, 0.5,
         False),
        # upwind at cell Peclet 6 over 1,024 cells: s would fall to 7**-512
        (long, const(long, 6144.0), steady, "upwind", 1e-4, 1.0, False),
    ]
    rng = np.random.default_rng(13)
    for grid, p, spec, scheme, dt, theta, symmetric in cases:
        fuel = GriddedFuel(spec, grid)
        prop = build_propagator(p, fuel, 0.1, 0.1 + dt, theta, scheme)
        assert (prop.scale is not None) == symmetric, (scheme, p.c.max())
        gen = _generator(p, fuel, 0.1 + 0.5 * dt, scheme)
        v = rng.standard_normal((p.n, grid.m))
        got = prop.apply_values(v)
        for i in range(p.n):
            L = _dense(*gen[i])
            A = np.eye(grid.m) + theta * dt * L
            B = np.eye(grid.m) - (1.0 - theta) * dt * L
            ref = np.linalg.solve(A, B @ v[i])
            assert np.linalg.norm(got[i] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_stacked_kernel_equals_per_layer_banded_reference():
    # one solve per layer, as the kernel did before the layers were stacked,
    # with the factorization the operator holds, for every admitted theta
    rng = np.random.default_rng(6)
    for theta in (0.5, 0.7, 1.0):
        prop, gen, w_imp, _ = _variable_kernel_case(theta=theta)
        n, m = gen.shape[0], gen.shape[2]
        v = rng.standard_normal((n, m))
        _assert_layer_steps(prop, gen, w_imp, theta, v)


def test_stacked_layers_are_decoupled_at_the_seams():
    prop, gen, _, _ = _variable_kernel_case()
    n, m = gen.shape[0], gen.shape[2]
    rng = np.random.default_rng(7)
    v = rng.standard_normal((n, m))
    base = prop.apply_values(v)
    for i in range(n):
        moved = v.copy()
        moved[i] += rng.standard_normal(m)
        out = prop.apply_values(moved)
        others = np.arange(n) != i
        assert np.array_equal(out[others], base[others])
        assert not np.array_equal(out[i], base[i])


def test_propagator_factors_stack_every_layer():
    # c = 0.5 symmetrizes; forced central at cell Peclet 2.5 (c = 4, still
    # diagonally dominant) keeps the LU factors
    grid = make_grid(-10.0, 10.0, 33)
    m = grid.m
    for c, scheme in ((0.5, "auto"), (4.0, "central")):
        for n in (2, 3, 4):
            p = LayerParams.constants(grid, n, a=1.0, c=c, lam=1.0)
            fuel = GriddedFuel(PrescribedFuel([ConstantFuel(1.0)] * n), grid)
            prop = build_propagator(p, fuel, 0.0, 0.01, scheme=scheme)
            if scheme == "auto":
                d, e = prop.lu
                assert d.shape == prop.scale.shape == (n * m,) and e.shape == (n * m - 1,)
            else:
                assert prop.scale is None and prop.lu[1].shape == (n * m,)
            _assert_layer_steps(prop, _generator(p, fuel, 0.005, scheme), 0.5 * 0.01, 0.5,
                                np.ones((n, m)))
        # one layer: the first layer's slice of the stacked factors, which the
        # zero seam entries leave without a coupling or a pivot across the seam
        if scheme == "auto":
            one = Propagator((d[:m], e[: m - 1]), 0.5, prop.scale[:m])
        else:
            dl, d, du, du2, ipiv = prop.lu
            one = Propagator((dl[: m - 1], d[:m], du[: m - 1], du2[: m - 2], ipiv[:m]), 0.5)
        v = np.random.default_rng(11).standard_normal((n, m))
        assert np.array_equal(one.apply_values(v[:1]), prop.apply_values(v)[:1])
    # a zero-length step has zero off-diagonals, so it keeps the stacked LU factors
    zero = build_propagator(p, fuel, 0.2, 0.2)
    assert zero.scale is None and zero.lu[1].shape == (n * m,)


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
        assert len(_arrays(prop)) == len(_arrays(one)) == 3  # symmetrized: d, e, s
        for got, ref in zip(_arrays(prop), _arrays(one)):
            assert np.array_equal(got, ref)
        assert np.array_equal(prop.apply_values(v), one.apply_values(v))
        gen = _generator(p, fuel, 0.5 * (times[k] + times[k + 1]))
        _assert_layer_steps(prop, gen, theta * (times[k + 1] - times[k]), theta, v)


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


# ---------------------------------------------------------------------------
# one operator per run of bitwise-equal steps


def _bits(a):
    """Bit pattern of float data, so that -0.0 and +0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _shared(a, b):
    """Whether each of a's factor arrays overlaps b's."""
    return [np.shares_memory(x, y) for x, y in zip(_arrays(a), _arrays(b))]


def _check_runs(p, fuel, times, theta=0.5):
    """Each operator is bitwise its single-step build, and steps share factors
    exactly when they share a key: the run of adjacent steps whose fuel
    samples are bitwise equal, and the step's dt bit pattern.  The step that
    builds a key's factors also applies bitwise as the per-layer step from
    its generator bands.  Returns the props and the indices of those building
    steps."""
    props = build_propagators(p, fuel, times, theta)
    assert len(props) == times.size - 1
    mids = 0.5 * (times[:-1] + times[1:])
    dts = np.diff(times)
    dt_bits = _bits(dts).tolist()
    samples = [_bits(fuel.sample(float(t))) for t in mids]
    v = np.random.default_rng(12).standard_normal((p.n, fuel.grid.m))
    owner = {}  # key -> the step that built its factors
    heads = []
    run = 0
    for k, prop in enumerate(props):
        one = build_propagator(p, fuel, float(times[k]), float(times[k + 1]), theta)
        assert len(_arrays(prop)) == len(_arrays(one))
        for got, ref in zip(_arrays(prop), _arrays(one)):
            assert np.array_equal(got, ref)
        if k and not np.array_equal(samples[k], samples[k - 1]):
            run += 1
        j = owner.setdefault((run, dt_bits[k]), k)
        assert all(_shared(prop, props[j]))
        if j == k:
            heads.append(k)
            _assert_layer_steps(prop, _generator(p, fuel, float(mids[k])),
                                theta * dts[k], theta, v)
    # no two keys share factors
    assert len({id(prop.lu[1]) for prop in props}) == len(heads)
    return props, heads


class _RowFuel:
    """rows[i] on the i-th interval between edges; every sample is an exact copy."""

    def __init__(self, edges, rows):
        self.edges = np.asarray(edges, dtype=float)
        self.rows = np.asarray(rows, dtype=float)

    def sample(self, grid, t):
        return self.rows[np.searchsorted(self.edges, t)]


def test_time_invariant_fuel_shares_one_operator_per_run():
    n, m = 2, 101
    grid = make_grid(-5.0, 5.0, m)
    p = _variable_params(grid, n)
    # rate 0: a Gaussian in x that does not move in t
    fuel = GriddedFuel(PrescribedFuel([ConstantFuel(0.8), GaussianDecayFuel(0.5, 2.0, 0.0)]),
                       grid)
    assert fuel.spec.time_invariant
    block = steps_per_block(n * m)
    exact = np.arange(2 * block + 7) * 2.0**-9  # every dt the same bits
    _, heads = _check_runs(p, fuel, exact)
    assert heads == [0]
    # dt * k lattices round each dt a little differently: one operator per
    # distinct dt, fewer than the runs of equal adjacent steps
    times = 1e-3 * np.arange(2 * block + 7)
    dt_bits = _bits(np.diff(times))
    _, heads = _check_runs(p, fuel, times)
    assert 1 < len(heads) == np.unique(dt_bits).size
    assert len(heads) < 1 + np.count_nonzero(dt_bits[1:] != dt_bits[:-1])


def test_tabulated_run_crosses_blocks_then_changes():
    n, m = 3, 96
    grid = make_grid(-6.0, 6.0, m)
    p = _variable_params(grid, n)
    block = steps_per_block(n * m)
    h = 2.0**-8
    # samples before the first node are the first row exactly, past the last
    # node the last row; in between they change at every step
    start = block + block // 2
    table_times = np.array([start, start + 20]) * h
    layer = np.arange(n)[None, :, None]
    table = 0.5 + 0.3 * np.sin(grid.x[None, None] + layer + np.array([0.0, 1.0])[:, None, None])
    fuel = GriddedFuel(TabulatedFuel(table_times, table), grid)
    times = np.arange(3 * block) * h
    props, heads = _check_runs(p, fuel, times)
    # one run over the first block boundary, 20 changing steps, one run to the end
    assert heads == [0] + list(range(start, start + 21))
    assert all(_shared(props[block - 1], props[block]))
    assert all(_shared(props[2 * block - 1], props[2 * block]))


def test_nonuniform_dt_with_constant_fuel():
    n, m = 2, 81
    grid = make_grid(-5.0, 5.0, m)
    p = _variable_params(grid, n)
    fuel = GriddedFuel(PrescribedFuel([ConstantFuel(0.6)] * n), grid)
    block = steps_per_block(n * m)
    dts = np.repeat([2.0**-9, 2.0**-8, 2.0**-9, 3 * 2.0**-10, 0.0],
                    [block + 3, 20, 5, 30, 2])
    rng = np.random.default_rng(4)
    dts = np.concatenate([dts, rng.uniform(1e-3, 3e-3, 6)])
    times = np.concatenate([[0.0], np.cumsum(dts)])
    assert np.array_equal(_bits(np.diff(times)[:-6]), _bits(dts[:-6]))  # sums of 2**-10
    _, heads = _check_runs(p, fuel, times)
    # the third run repeats the first run's dt, so it reuses its factors
    assert heads == [0, block + 3, block + 28, block + 58] + list(range(block + 60, block + 66))


def test_signed_zero_fuel_samples_do_not_share():
    n, m = 2, 41
    grid = make_grid(-2.0, 2.0, m)
    p = _variable_params(grid, n)  # b != 0, so y reaches the capacities
    row = np.full((n, m), 0.4)
    row[:, ::3] = 0.0
    neg = row.copy()
    neg[:, ::3] = -0.0
    # +0.0, then -0.0, then +0.0 again; a + b*y is the same for both zeros
    fuel = GriddedFuel(_RowFuel([0.05, 0.1], [row, neg, row]), grid)
    times = np.arange(61) * 2.0**-8
    props, heads = _check_runs(p, fuel, times)
    assert len(heads) == 3
    for k in heads[1:]:  # equal operators, built apart
        assert not any(_shared(props[k], props[k - 1]))
        assert len(_arrays(props[k])) == len(_arrays(props[k - 1]))
        for got, ref in zip(_arrays(props[k]), _arrays(props[k - 1])):
            assert np.array_equal(got, ref)


def test_drift_window_factors_once_per_step_length():
    # drift's fuel is constant, so its 500 steps take one operator per
    # distinct dt bit pattern (8), not one per run of equal adjacent steps (46)
    config = shipped_config("drift_benchmark")
    prob, cfg = config.problem(), config.solver
    times = time_lattice(config.T, cfg.dt)
    dt_bits = _bits(np.diff(times))
    runs = 1 + np.count_nonzero(dt_bits[1:] != dt_bits[:-1])
    props = build_propagators(prob.params, GriddedFuel(prob.fuel, prob.grid), times,
                              cfg.theta, cfg.scheme)
    assert len(props) == 500
    assert len({id(prop.lu) for prop in props}) <= np.unique(dt_bits).size < runs == 46


def test_all_y0_table_factors_once_per_step_length():
    # the coupled ignition run's first pass tabulates y0 at every node, so its
    # samples are one run and its 500 steps take one operator per distinct dt
    # bit pattern (8), not one per run of equal adjacent steps (46)
    config = shipped_config("ignition_coupled")
    prob, cfg = config.problem(), config.solver
    times = time_lattice(config.T, cfg.dt)
    y0 = prob.fuel.sample(prob.grid, 0.0)
    table = TabulatedFuel(times, np.repeat(y0[None], times.size, axis=0))
    assert not table.time_invariant
    dt_bits = _bits(np.diff(times))
    runs = 1 + np.count_nonzero(dt_bits[1:] != dt_bits[:-1])
    props = build_propagators(prob.params, GriddedFuel(table, prob.grid), times,
                              cfg.theta, cfg.scheme)
    assert len(props) == 500
    assert len({id(prop.lu) for prop in props}) == np.unique(dt_bits).size == 8
    assert runs == 46


def test_shared_factors_still_guard_forced_central_dominance():
    # a long step after two blocks of short ones loses dominance; it raises
    # whether the short steps share one set of factors (time-invariant fuel)
    # or share by runs (decaying fuel)
    grid = make_grid(0.0, 1.0, 51)
    p = LayerParams.constants(grid, 2, a=1.0, c=200.0, lam=0.01)
    block = steps_per_block(2 * grid.m)
    dts = np.full(2 * block + 4, 2.0**-14)
    dts[2 * block] = 0.5
    times = np.concatenate([[0.0], np.cumsum(dts)])
    for spec, operators in ((PrescribedFuel([ConstantFuel(1.0)] * 2), 1),
                            (PrescribedFuel([GaussianDecayFuel(0.5, 2.0, 0.9)] * 2), 2 * block)):
        fuel = GriddedFuel(spec, grid)
        short = build_propagators(p, fuel, times[: 2 * block + 1], scheme="central")
        assert len({id(prop.lu) for prop in short}) == operators
        with pytest.raises(ValueError, match="diagonal dominance"):
            build_propagators(p, fuel, times, scheme="central")


def test_weighted_generator_is_the_fuel_free_stencil():
    # L_h = D_h / w, so w*L_h is the same stencil for every fuel sample, up to
    # the rounding of the division and the product
    grid = make_grid(-4.0, 4.0, 64)
    p = _variable_params(grid, 3)  # b = 0.3
    ys = np.random.default_rng(21).uniform(0.0, 1.0, (2, 3, grid.m))
    w = capacity(p, ys)
    assert np.abs(w[0] - w[1]).max() > 0.2
    for scheme in evolution.SCHEMES:
        weighted = generator_bands(p, ys, grid.dx, scheme) * w[..., None, :]
        np.testing.assert_allclose(weighted[0], weighted[1], rtol=4 * np.finfo(float).eps,
                                   atol=0.0)


def test_one_stencil_per_build(monkeypatch):
    # every step of this table has its own fuel sample and operator, over
    # several blocks, yet D_h is built once per build_propagators call and
    # once per generator_bands call
    n, m = 2, 64
    grid = make_grid(-4.0, 4.0, m)
    p = _variable_params(grid, n)
    times = np.arange(2 * steps_per_block(n * m) + 6) * 2.0**-9
    layer = np.arange(n)[None, :, None]
    table = 0.5 + 0.4 * np.sin(grid.x + layer + times[:, None, None])
    fuel = GriddedFuel(TabulatedFuel(times, table), grid)
    calls = []
    stencil = evolution._stencil

    def counted(*args):
        calls.append(args)
        return stencil(*args)

    monkeypatch.setattr(evolution, "_stencil", counted)
    props = build_propagators(p, fuel, times)
    assert len({id(prop.lu) for prop in props}) == len(props) == times.size - 1
    assert len(calls) == 1
    generator_bands(p, table, grid.dx)
    assert len(calls) == 2
