"""Grid construction, discrete norms, and the trajectory metric."""

import numpy as np
import pytest

from layerburn.grid import (
    GUARD_BAND_NODES,
    SolutionTrajectory,
    guard_band_ratio,
    l2_norm,
    layer_l2,
    make_grid,
    steps_per_block,
    sup_metric,
    time_lattice,
)


def test_make_grid_nodes_and_spacing():
    g = make_grid(-1.0, 1.0, 3)
    np.testing.assert_array_equal(g.x, [-1.0, 0.0, 1.0])
    assert g.dx == 1.0

    g = make_grid(0.0, 10.0, 11)
    assert g.dx == 1.0
    assert g.x[0] == 0.0 and g.x[-1] == 10.0


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0, 11)
    with pytest.raises(ValueError):
        make_grid(0.0, np.inf, 11)


def test_time_lattice_is_dt_times_k():
    for T, dt in ((0.5, 0.1), (1.0, 0.002), (0.3, 0.1)):
        nodes = time_lattice(T, dt)
        k = int(round(T / dt))
        assert np.array_equal(nodes, dt * np.arange(k + 1))
        assert nodes[-1] == pytest.approx(T, rel=1e-12)
    # a horizon within 1e-9 of a whole number of steps keeps the dt*k nodes
    assert time_lattice(1.0 + 1e-12, 0.25).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("T,dt", [(0.1, 0.03), (0.2, 0.3), (-1.0, 0.1), (0.0, 0.1)])
def test_time_lattice_rejects_partial_steps(T, dt):
    with pytest.raises(ValueError, match="whole number of dt steps"):
        time_lattice(T, dt)


def test_l2_norm_zero_field():
    g = make_grid(0.0, 1.0, 11)
    assert l2_norm(np.zeros((2, 11)), g.dx) == 0.0


def test_l2_norm_constant_one_rectangle_rule():
    # weight dx at every node: 101 nodes of 1^2 * 0.01 -> sqrt(1.01)
    g = make_grid(0.0, 1.0, 101)
    np.testing.assert_allclose(l2_norm(np.ones((1, 101)), g.dx), np.sqrt(1.01), rtol=1e-14)


def test_l2_norm_is_max_over_layers():
    g = make_grid(0.0, 1.0, 101)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((2, 101))
    per_layer = layer_l2(v, g.dx)
    v[0] *= 2.0 / per_layer[0]
    v[1] *= 3.0 / per_layer[1]
    np.testing.assert_allclose(l2_norm(v, g.dx), 3.0, rtol=1e-13)


def test_l2_norm_rejects_non_finite():
    g = make_grid(0.0, 1.0, 11)
    bad = np.zeros((1, 11))
    bad[0, 4] = np.nan
    with pytest.raises(ValueError):
        l2_norm(bad, g.dx)


def test_l2_norm_of_a_huge_layer_is_finite(recwarn):
    # a 1e200 bump's sum of squares overflows, so that layer is summed again
    # scaled by its max; the other layer keeps the unscaled formula's bits
    g = make_grid(-10.0, 10.0, 401)
    v = np.stack([1e200 * np.exp(-g.x**2), np.exp(-g.x**2)])
    norm = l2_norm(v, g.dx)
    assert np.isfinite(norm)
    np.testing.assert_allclose(norm, 1e200 * np.sqrt(g.dx * np.sum(np.exp(-g.x**2) ** 2)),
                               rtol=1e-14)
    assert l2_norm(v[1:], g.dx) == float(np.sqrt(g.dx * np.sum(v[1] ** 2)))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_l2_norm_absolute_homogeneity():
    g = make_grid(-3.0, 3.0, 77)
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.standard_normal((3, 77))
        c = rng.standard_normal()
        base = l2_norm(v, g.dx)
        scaled = l2_norm(c * v, g.dx)
        np.testing.assert_allclose(scaled, abs(c) * base, rtol=1e-13, atol=0.0)


def test_l2_norm_triangle_inequality():
    g = make_grid(-3.0, 3.0, 77)
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = rng.standard_normal((2, 77))
        w = rng.standard_normal((2, 77))
        lhs = l2_norm(v + w, g.dx)
        rhs = l2_norm(v, g.dx) + l2_norm(w, g.dx)
        assert lhs <= rhs * (1.0 + 1e-12)


def _traj(g, times, values):
    return SolutionTrajectory(np.asarray(times, float), np.asarray(values, float), g)


def test_sup_metric_identity_and_symmetry():
    g = make_grid(0.0, 1.0, 21)
    rng = np.random.default_rng(3)
    a = _traj(g, [0.0, 0.5, 1.0], rng.standard_normal((3, 2, 21)))
    b = _traj(g, a.times, rng.standard_normal((3, 2, 21)))
    assert sup_metric(a, a) == 0.0
    np.testing.assert_allclose(sup_metric(a, b), sup_metric(b, a), rtol=0.0)


def test_sup_metric_single_node_shift():
    # one node differing by c at one time contributes sqrt(dx)*|c|
    g = make_grid(0.0, 1.0, 101)
    vals = np.zeros((3, 2, 101))
    shifted = vals.copy()
    c = -0.37
    shifted[1, 0, 50] += c
    a = _traj(g, [0.0, 0.5, 1.0], vals)
    b = _traj(g, a.times, shifted)
    np.testing.assert_allclose(sup_metric(a, b), np.sqrt(g.dx) * abs(c), rtol=1e-14)


def test_sup_metric_zero_iff_equal():
    g = make_grid(0.0, 1.0, 21)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((4, 2, 21))
    a = _traj(g, [0.0, 0.1, 0.2, 0.3], vals)
    b = _traj(g, a.times, vals.copy())
    assert sup_metric(a, b) == 0.0
    b.values[2, 1, 7] += 1e-13
    assert sup_metric(a, b) > 0.0


def test_sup_metric_rejects_mismatched_discretizations():
    g = make_grid(0.0, 1.0, 21)
    h = make_grid(0.0, 1.0, 31)
    a = _traj(g, [0.0, 1.0], np.zeros((2, 2, 21)))
    with pytest.raises(ValueError):
        sup_metric(a, _traj(h, [0.0, 1.0], np.zeros((2, 2, 31))))
    with pytest.raises(ValueError):
        sup_metric(a, _traj(g, [0.0, 2.0], np.zeros((2, 2, 21))))
    with pytest.raises(ValueError):
        sup_metric(a, _traj(g, [0.0, 1.0], np.zeros((2, 3, 21))))


def test_blocked_reductions_equal_whole_array_formulas():
    # layer_l2 and sup_metric reduce a block of time nodes at a time; over
    # several blocks they give the whole-array formulas bit for bit, and a
    # non-finite value in a later block is still refused
    g = make_grid(0.0, 1.0, 64)
    k = 2 * steps_per_block(2 * g.m) + 7
    rng = np.random.default_rng(6)
    u = rng.standard_normal((k, 2, g.m))
    v = rng.standard_normal((k, 2, g.m))
    whole = np.sqrt(g.dx * np.sum(u**2, axis=-1))
    assert np.array_equal(layer_l2(u, g.dx), whole)
    assert all(np.array_equal(layer_l2(u[j], g.dx), whole[j]) for j in range(k))
    a, b = _traj(g, np.arange(k), u), _traj(g, np.arange(k), v)
    assert sup_metric(a, b) == float(np.max(np.sqrt(g.dx * np.sum((u - v) ** 2, axis=-1))))
    v[-1, 1, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        sup_metric(a, b)


def test_guard_band_ratio_flags_boundary_mass():
    vals = np.zeros((2, 101))
    vals[0, 50] = 1.0
    assert guard_band_ratio(vals) == 0.0
    vals[1, 3] = 0.5  # inside the left band of GUARD_BAND_NODES nodes
    assert guard_band_ratio(vals) == 0.5
    assert GUARD_BAND_NODES == 10
