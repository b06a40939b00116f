"""Config grammar, CSV round-trips, front tracking, and the CLI exit-code
contract, exercised end to end through cli()."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from layerburn import io_cli, mild_solver
from layerburn.grid import SolutionTrajectory, layer_l2, make_grid, sup_metric
from layerburn.hypothesis import audit_problem
from layerburn.io_cli import (
    ConfigError,
    _refine_in_time,
    cli,
    front_threshold_default,
    front_track,
    parse_config,
    parse_function_spec,
    read_trajectory,
    write_report,
    write_trajectory,
)
from layerburn.mild_solver import solve_global

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE_CFG = dedent("""\
    [grid]
    x_min = -6
    x_max = 6
    m = 81

    [layers]
    n = 2
    b_1 = constant(0.3)
    b_2 = constant(0.3)
    d_1 = bump(0, 0.4, 0, 2)
    K_1 = constant(0.2)
    K_2 = constant(0.2)
    A_1 = constant(1)
    A_2 = constant(1)
    q_1 = constant(0.15)
    E = 1

    [fuel]
    y_1 = constant(0.8)
    y_2 = logistic_front(0, 1, 1)

    [run]
    T = 0.2
    dt = 0.01
    phi_1 = bump(0, 1.2, 0, 1)
    """)


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# function specs


def test_function_spec_shapes():
    x = np.linspace(-3.0, 3.0, 7)
    const = parse_function_spec("constant(2.5)", "here")
    np.testing.assert_array_equal(const(x), 2.5)
    bump = parse_function_spec("bump(1, 2, 0.5, 1.5)", "here")
    np.testing.assert_allclose(bump(x), 1.0 + 2.0 * np.exp(-(((x - 0.5) / 1.5) ** 2)))
    step = parse_function_spec("tanh_step(-1, 3, 0, 2)", "here")
    assert step(np.array([0.0]))[0] == pytest.approx(1.0)  # midpoint
    assert step(np.array([-50.0]))[0] == pytest.approx(-1.0)
    assert step(np.array([50.0]))[0] == pytest.approx(3.0)


@pytest.mark.parametrize("text,msg", [
    ("gaussian(1)", "unknown function"),
    ("bump(1, 2)", "takes 4 arguments"),
    ("bump(1, 2, 3, 0)", "width must be positive"),
    ("constant(x)", "non-numeric"),
    ("constant 1", "expected name"),
])
def test_function_spec_errors(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_function_spec(text, "here")


# ---------------------------------------------------------------------------
# config parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config(BASE_CFG)
    assert cfg.n == 2
    assert cfg.T == 0.2
    assert cfg.solver.dt == 0.01
    assert cfg.solver.window_mode == "continuation"
    assert cfg.solver.picard_tol == 1e-10
    assert "[run] picard_tol = 1e-10" in cfg.defaults_filled
    # unset fields fall back and the fallback is recorded
    assert np.all(cfg.params.a == 1.0)
    assert np.all(cfg.params.lam == 1.0)
    assert any("[layers] a_1" in line for line in cfg.defaults_filled)
    assert any("[run] phi_2" in line for line in cfg.defaults_filled)
    prob = cfg.problem()
    assert prob.phi[1].max() == 0.0
    assert prob.phi[0].max() == pytest.approx(1.2)
    # advection gradient is derived, not configurable
    np.testing.assert_array_equal(cfg.params.c_x, 0.0)


def test_config_accepts_all_solver_knobs():
    text = BASE_CFG + dedent("""\
        theta = 1
        scheme = upwind
        window_mode = contraction
        picard_tol = 1e-8
    """)
    cfg = parse_config(text)
    s = cfg.solver
    assert (s.theta, s.scheme, s.window_mode) == (1.0, "upwind", "contraction")
    assert s.picard_tol == 1e-8
    assert [f.name for f in dataclasses.fields(s)] == [
        "dt", "theta", "scheme", "picard_tol", "window_mode"]
    # the sweep budget is derived and the other three are constants
    for key in ("picard_max_iters", "blowup_ceiling", "coupled_outer_tol",
                "coupled_outer_max"):
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[run\]"):
            parse_config(text + f"{key} = 1\n")


def test_experiment_perturbations_are_assembled():
    text = BASE_CFG + dedent("""\
        [experiment]
        levels = 4
        perturb_phi_1 = bump(0, 0.1, 0, 2)
        perturb_a_2 = constant(0.05)
        perturb_qhat_1 = bump(0, 0.02, 0, 1)
        perturb_u_e = 0.3
    """)
    cfg = parse_config(text)
    pert = cfg.experiment["perturb"]
    assert set(pert) == {"phi", "a", "qhat1", "u_e"}
    assert pert["phi"].shape == (2, 81)
    assert np.all(pert["phi"][1] == 0.0) and pert["phi"][0].max() > 0
    assert np.all(pert["a"][0] == 0.0) and np.all(pert["a"][1] == 0.05)
    assert pert["qhat1"].shape == (81,)
    assert pert["u_e"] == 0.3
    assert cfg.experiment["levels"] == 4


@pytest.mark.parametrize("mangle,msg", [
    (lambda t: t.replace("[grid]", "[mesh]"), "unknown section"),
    (lambda t: t.replace("m = 81", "m = 81\nm = 91"), "duplicate key"),
    (lambda t: t.replace("m = 81", "nodes = 81"), "missing required key"),
    (lambda t: t + "typo_key = 1\n", "unknown key"),
    (lambda t: "stray = 1\n" + t, "outside any"),
    (lambda t: t.replace("n = 2", "n = 1"), "at least 2 layers"),
    (lambda t: t.replace("T = 0.2", "T = -1"), "T must be positive"),
    (lambda t: t.replace("T = 0.2", "T = nan"), "T must be positive and finite"),
    (lambda t: t + "lam_1 = constant(0)\n".replace("lam_1", "phi_9"), "unknown key"),
    (lambda t: t.replace("y_1 = constant(0.8)", "y_1 = constant(1.5)"),
     r"fuel level must lie in \[0, 1\]"),
    (lambda t: t.replace("E = 1", "E = -2"), "E must be positive"),
    (lambda t: t.replace("q_1 = constant(0.15)", "q_1 = constant(-0.1)"),
     "nonnegative"),
    (lambda t: t.replace("[run]", "[run]\nbogus\n"), "expected key = value"),
    (lambda t: t + "window_mode = adaptive\n",
     r"\[run\] window_mode: must be one of continuation, contraction$"),
    (lambda t: t + "seed_mode = initial\n", r"unknown key 'seed_mode' in \[run\]"),
    (lambda t: t + "max_window = 0.05\n", r"unknown key 'max_window' in \[run\]"),
])
def test_config_errors_are_located(mangle, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(mangle(BASE_CFG))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_E_is_a_config_error(value, tmp_path, capsys):
    text = BASE_CFG.replace("E = 1", f"E = {value}")
    with pytest.raises(ConfigError, match=r"^\[layers\] E: .*positive and finite"):
        parse_config(text)
    # the audit must not certify T' from NaN constants
    path = _write(tmp_path, text)
    assert cli(["check-hypotheses", path, "--out", str(tmp_path / "nan")]) == 1
    assert "[layers] E" in capsys.readouterr().err
    assert not (tmp_path / "nan_hypotheses.txt").exists()


def test_positivity_failures_name_the_field():
    bad = BASE_CFG.replace("E = 1", "E = 1\nlam_1 = constant(0)")
    with pytest.raises(ConfigError, match="lam_1 must be strictly positive"):
        parse_config(bad)
    bad = BASE_CFG.replace("E = 1", "E = 1\na_2 = tanh_step(-1, 1, 0, 1)")
    with pytest.raises(ConfigError, match="a_2 must be strictly positive"):
        parse_config(bad)


def test_missing_dt_is_a_config_error(tmp_path, capsys):
    # dt is required in every fuel mode and for every subcommand
    for mode in ("prescribed", "coupled"):
        text = BASE_CFG.replace("[fuel]", f"[fuel]\nmode = {mode}")
        text = text.replace("dt = 0.01\n", "")
        with pytest.raises(ConfigError, match=r"^\[run\] is missing required key 'dt'$"):
            parse_config(text)
        path = _write(tmp_path, text, f"{mode}.cfg")
        for command in ("simulate", "oracle-compare", "dependence-study"):
            assert cli([command, path, "--out", str(tmp_path / "nodt")]) == 1
            assert "missing required key 'dt'" in capsys.readouterr().err
    assert not list(tmp_path.glob("nodt*"))


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.01"])
def test_nonpositive_or_nonfinite_dt_is_a_located_config_error(value, tmp_path, capsys):
    text = BASE_CFG.replace("dt = 0.01", f"dt = {value}")
    with pytest.raises(ConfigError, match=r"^\[run\]: dt must be positive and finite"):
        parse_config(text)
    path = _write(tmp_path, text)
    assert cli(["simulate", path, "--out", str(tmp_path / "baddt")]) == 1
    assert "config error: [run]: dt must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "0.3", "1.5", "nan"])
def test_theta_outside_the_a_stable_range_is_a_located_config_error(value, tmp_path, capsys):
    text = BASE_CFG.replace("dt = 0.01", f"dt = 0.01\ntheta = {value}")
    with pytest.raises(ConfigError, match=r"^\[run\]: theta must lie in \[1/2, 1\], got"):
        parse_config(text)
    path = _write(tmp_path, text)
    assert cli(["simulate", path, "--out", str(tmp_path / "theta")]) == 1
    assert "config error: [run]: theta must lie in [1/2, 1]" in capsys.readouterr().err
    assert not list(tmp_path.glob("theta*"))


@pytest.mark.parametrize("value, reason", [
    ("nan", "must be positive and finite"),
    ("inf", "must be positive and finite"),
    ("0", "must be positive and finite"),
    ("-0.0005", "must be positive and finite"),
    ("0.0003", "must be a whole number of steps of 4\\*oracle_dt"),
])
def test_bad_oracle_dt_is_a_located_config_error(value, reason, tmp_path, capsys):
    text = BASE_CFG + f"\n[experiment]\noracle_dt = {value}\n"
    with pytest.raises(ConfigError, match=r"^\[experiment\] oracle_dt.*" + reason):
        parse_config(text)
    path = _write(tmp_path, text)
    assert cli(["oracle-compare", path, "--out", str(tmp_path / "orc")]) == 1
    assert "config error: [experiment] oracle_dt" in capsys.readouterr().err
    # T = 0.2 is 100 steps of 4 * 0.0005
    ok = parse_config(BASE_CFG + "\n[experiment]\noracle_dt = 0.0005\n")
    assert ok.experiment["oracle_dt"] == 0.0005


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_nonfinite_or_negative_u_e_is_a_config_error(value, tmp_path, capsys):
    text = BASE_CFG.replace("E = 1", f"E = 1\nu_e = {value}")
    with pytest.raises(ConfigError, match=r"^\[layers\] u_e must be nonnegative and finite"):
        parse_config(text)
    # the audit must not certify T' from a NaN mu
    path = _write(tmp_path, text)
    assert cli(["check-hypotheses", path, "--out", str(tmp_path / "ue")]) == 1
    assert "[layers] u_e" in capsys.readouterr().err
    assert not (tmp_path / "ue_hypotheses.txt").exists()


def test_horizon_off_the_dt_lattice_is_a_located_config_error(tmp_path, capsys):
    text = BASE_CFG.replace("dt = 0.01", "dt = 0.003")
    with pytest.raises(ConfigError, match=r"^\[run\] dt: T = 0.2 must be a whole number "
                                          r"of steps of dt = 0.003$"):
        parse_config(text)
    path = _write(tmp_path, text)
    assert cli(["simulate", path, "--out", str(tmp_path / "lat")]) == 1
    assert "config error: [run] dt: T = 0.2" in capsys.readouterr().err
    assert not list(tmp_path.glob("lat*"))


def test_default_oracle_ladder_off_the_4dt_lattice_is_a_located_config_error(
        tmp_path, capsys):
    # T = 0.3 is 6 steps of dt = 0.05 but 1.5 steps of 4*dt, the coarsest rung
    # oracle-compare runs when oracle_dt is not set; only that subcommand fails
    text = BASE_CFG.replace("T = 0.2", "T = 0.3").replace("dt = 0.01", "dt = 0.05")
    path = _write(tmp_path, text)
    assert cli(["oracle-compare", path, "--out", str(tmp_path / "orc")]) == 1
    err = capsys.readouterr().err
    assert "config error: [run] dt: T = 0.3 must be a whole number of steps of 4*dt" in err
    assert not list(tmp_path.glob("orc*"))
    assert cli(["simulate", path, "--out", str(tmp_path / "sim")]) == 0


@pytest.mark.parametrize("old, new, where", [
    ("phi_1 = bump(0, 1.2, 0, 1)", "phi_1 = constant(nan)", "[run] phi_1"),
    ("E = 1", "E = 1\na_1 = constant(nan)", "[layers] a_1"),
    ("d_1 = bump(0, 0.4, 0, 2)", "d_1 = bump(0, inf, 0, 2)", "[layers] d_1"),
    ("y_2 = logistic_front(0, 1, 1)", "y_2 = logistic_front(0, nan, 1)", "[fuel] y_2"),
    ("phi_1 = bump(0, 1.2, 0, 1)",
     "phi_1 = bump(0, 1.2, 0, 1)\n[experiment]\nperturb_a_2 = bump(0, -inf, 0, 1)",
     "[experiment] perturb_a_2"),
])
def test_nonfinite_function_spec_argument_is_a_located_config_error(
        old, new, where, tmp_path, capsys):
    text = BASE_CFG.replace(old, new)
    with pytest.raises(ConfigError, match=re.escape(where) + ": non-finite argument"):
        parse_config(text)
    path = _write(tmp_path, text)
    assert cli(["check-hypotheses", path, "--out", str(tmp_path / "spec")]) == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("picard_tol = nan", "[run]: picard_tol must be positive and finite"),
    ("picard_tol = inf", "[run]: picard_tol must be positive and finite"),
    ("picard_tol = 0", "[run]: picard_tol must be positive and finite"),
    ("coupled_outer_tol = nan", "unknown key 'coupled_outer_tol' in [run]"),
    ("blowup_ceiling = nan", "unknown key 'blowup_ceiling' in [run]"),
    ("blowup_ceiling = -1", "unknown key 'blowup_ceiling' in [run]"),
    ("coupled_outer_max = 0", "unknown key 'coupled_outer_max' in [run]"),
    ("coupled_outer_max = -3", "unknown key 'coupled_outer_max' in [run]"),
    ("[experiment]\noracle_newton_tol = nan",
     "[experiment] oracle_newton_tol must be positive and finite"),
    ("[experiment]\noracle_newton_tol = -1e-10",
     "[experiment] oracle_newton_tol must be positive and finite"),
    ("[experiment]\nfront_threshold = nan", "[experiment] front_threshold must be finite"),
    ("[experiment]\nperturb_u_e = nan", "[experiment] perturb_u_e must be finite"),
])
def test_bad_solver_settings_are_located_config_errors(line, message, tmp_path, capsys):
    text = BASE_CFG + line + "\n"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    path = _write(tmp_path, text)
    command = "oracle-compare" if "oracle" in line else "simulate"
    assert cli([command, path, "--out", str(tmp_path / "tol")]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("tol*"))


# ---------------------------------------------------------------------------
# serialization round-trips


def _toy_trajectory():
    grid = make_grid(0.0, 1.0, 11)
    times = np.array([0.0, 0.05, 0.1])
    rng = np.random.default_rng(7)
    values = rng.standard_normal((3, 2, 11))
    return SolutionTrajectory(times, values, grid)


def test_trajectory_round_trip(tmp_path):
    traj = _toy_trajectory()
    paths = write_trajectory(traj, tmp_path / "toy")
    assert len(paths) == 4  # three snapshots plus the index
    back, fuel = read_trajectory(tmp_path / "toy")
    assert fuel is None
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.values, traj.values)
    assert back.grid == traj.grid


def test_trajectory_round_trip_with_fuel(tmp_path):
    traj = _toy_trajectory()
    table = np.random.default_rng(8).uniform(0.0, 1.0, traj.values.shape)
    write_trajectory(traj, tmp_path / "toy", table)
    back, fuel = read_trajectory(tmp_path / "toy")
    np.testing.assert_array_equal(fuel, table)
    np.testing.assert_array_equal(back.values, traj.values)
    with pytest.raises(ValueError, match="align"):
        write_trajectory(traj, tmp_path / "bad", table[:, :, :5])


EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1e-5, 9.999999999999999e-5, 1e-4,
               1e16, 1e17, -1e300, 0.1, 1 / 3,
               # exact ties at the 17th digit, which round half to even
               0.0010004043579101562, 1.0251998901367188e-05,
               # 1e23 is 9.9999999999999992e+22; 9.9999999999999991e-06 has E = -6
               1e23, 9.9999999999999991e-06,
               # one ulp either side of 1e16 and 1e17, the last fixed-notation decade
               9999999999999998.0, 1.0000000000000002e16,
               9.999999999999998e16, 1.0000000000000002e17,
               # the smallest normal and the largest finite double
               2.2250738585072014e-308, 1.7976931348623157e308]


def _edge_trajectory():
    """Snapshot 0 holds every edge value; snapshot 1 has finite layer norms."""
    m = len(EDGE_VALUES)
    grid = make_grid(-1.0, 1 / 3, m)
    edge = np.array(EDGE_VALUES)
    values = np.stack([[edge, edge[::-1]],
                       [np.arange(m) / 3, np.linspace(-1e-5, 1e16, m)]])
    return SolutionTrajectory(np.array([0.0, 0.1]), values, grid)


def _csv_text(header, cols):
    """The pinned layout, one format(v, ".17g") per value."""
    lines = [",".join(header)]
    lines += [",".join(format(float(c[j]), ".17g") for c in cols)
              for j in range(len(cols[0]))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_fuel", [False, True])
def test_trajectory_bytes_are_pinned(tmp_path, with_fuel):
    traj = _edge_trajectory()
    table = np.stack([traj.values[0, ::-1], np.full((2, traj.grid.m), 0.25)])
    with np.errstate(over="ignore"):  # -1e300 squared: snapshot 0 norm is inf
        paths = write_trajectory(traj, tmp_path / "pin", table if with_fuel else None)
        norms = [layer_l2(traj.values[k], traj.grid.dx) for k in range(2)]
    names = ["pin_snap_00000.csv", "pin_snap_00001.csv", "pin_index.csv"]
    assert paths == [str(tmp_path / name) for name in names]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    header = ["x", "u_1", "u_2"] + (["y_1", "y_2"] if with_fuel else [])
    for k in range(2):
        cols = [traj.grid.x, *traj.values[k]] + (list(table[k]) if with_fuel else [])
        assert (tmp_path / names[k]).read_text() == _csv_text(header, cols)
    index = [["time", "filename", "norm_1", "norm_2"]] + [
        [format(t, ".17g"), names[k]] + [format(v, ".17g") for v in norms[k]]
        for k, t in enumerate([0.0, 0.1])]
    text = (tmp_path / "pin_index.csv").read_text()
    assert text == "".join(",".join(row) + "\n" for row in index)
    assert text.splitlines()[1].endswith(",inf,inf")
    back, fuel = read_trajectory(tmp_path / "pin")
    assert back.values.tobytes() == traj.values.tobytes()  # keeps the sign of -0.0
    assert (fuel is not None) == with_fuel


def test_trajectory_round_trip_smallest_grid(tmp_path):
    grid = make_grid(-2.5e-310, 1e17, 3)
    values = np.array(EDGE_VALUES[:12]).reshape(2, 2, 3)
    traj = SolutionTrajectory(np.array([1 / 3, 1.0]), values, grid)
    table = values[:, ::-1, ::-1]
    with np.errstate(over="ignore"):
        write_trajectory(traj, tmp_path / "tiny", table)
    back, fuel = read_trajectory(tmp_path / "tiny")
    assert back.grid == grid
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.values.tobytes() == values.tobytes()
    assert fuel.tobytes() == table.tobytes()


@pytest.mark.parametrize("name", ["drift_benchmark", "ignition_coupled"])
def test_simulate_snapshots_match_the_format_reference(tmp_path, name):
    """Every snapshot of a shipped run has the bytes of one '%.17g' per value."""
    assert cli(["simulate", str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path / "run")]) == 0
    traj, fuel = read_trajectory(tmp_path / "run")
    assert (fuel is not None) == (name == "ignition_coupled")
    header = ["x"] + [f"{c}_{i + 1}" for c in ("uy" if fuel is not None else "u")
                      for i in range(traj.n)]
    # snapshots are rendered _RENDER_BLOCK // (m*cols) whole snapshots at a
    # time: both runs' 501 snapshots at 2 per block leave a remainder block
    per = io_cli._RENDER_BLOCK // (traj.grid.m * (len(header) - 1))
    assert per == 2 and traj.times.size % per == 1
    for k in range(traj.times.size):
        cols = [traj.grid.x, *traj.values[k]] + (list(fuel[k]) if fuel is not None else [])
        assert (tmp_path / f"run_snap_{k:05d}.csv").read_text() == _csv_text(header, cols)


def test_write_trajectory_peak_memory_is_one_render_block(tmp_path):
    grid = make_grid(-1.0, 1.0, 1024)
    values = np.random.default_rng(10).standard_normal((100, 2, grid.m))
    traj = SolutionTrajectory(np.arange(100.0), values, grid)
    write_trajectory(traj, tmp_path / "warm")  # the kernel's tables are built once
    tracemalloc.start()
    try:
        write_trajectory(traj, tmp_path / "mem", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 420 B per value of a 4096-value block; the text of the whole
    # trajectory would take 11 MB
    assert peak < 2.5e6 < 2 * values.nbytes


def test_snapshot_above_one_render_block_is_rendered_whole(tmp_path):
    # 1100 rows of u_1, u_2, y_1, y_2 are 4400 values, more than _RENDER_BLOCK:
    # each block is one snapshot
    grid = make_grid(-1.0, 1.0, 1100)
    rng = np.random.default_rng(12)
    values = rng.standard_normal((3, 2, grid.m)) * 10.0 ** rng.integers(-30, 30, (3, 2, grid.m))
    table = rng.uniform(0.0, 1.0, values.shape)
    assert 4 * grid.m > io_cli._RENDER_BLOCK
    write_trajectory(SolutionTrajectory(np.arange(3.0), values, grid), tmp_path / "big", table)
    header = ["x", "u_1", "u_2", "y_1", "y_2"]
    for k in range(3):
        assert (tmp_path / f"big_snap_{k:05d}.csv").read_text() == \
            _csv_text(header, [grid.x, *values[k], *table[k]])


_IGNITION_SHAPE_WRITE = """
import sys, tracemalloc
from pathlib import Path
import numpy as np
from layerburn.grid import SolutionTrajectory, make_grid
from layerburn.io_cli import write_trajectory
out = Path(sys.argv[1])
grid = make_grid(-8.0, 8.0, 401)
rng = np.random.default_rng(13)
values = rng.standard_normal((501, 2, grid.m))
table = rng.uniform(0.0, 1.0, values.shape)
traj = SolutionTrajectory(0.002 * np.arange(501), values, grid)
write_trajectory(traj, out / "warm")  # the kernel's tables are built once
tracemalloc.start()
write_trajectory(traj, out / "mem", table)
print(tracemalloc.get_traced_memory()[1])
"""


def test_write_trajectory_peak_memory_of_the_ignition_shape(tmp_path):
    # 501 snapshots of 401 nodes with two layers and a fuel table, as the
    # ignition run writes them: a block is 2 snapshots, 3208 values.  The
    # write is traced in a fresh interpreter, so nothing an earlier test left
    # behind (a growing cache or table) can land in the traced peak
    src = str(Path(io_cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _IGNITION_SHAPE_WRITE, str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    # 1.07 MB measured: one block of 3208 values at about 340 B per value
    assert int(run.stdout) < 1.3e6


_CLI_WITHOUT_SCIPY_LINALG = """
import sys
from layerburn.io_cli import cli
cfg, out = sys.argv[1:]
print("scipy.linalg" in sys.modules)
for command in ("check-hypotheses", "simulate"):
    assert cli([command, cfg, "--out", f"{out}/{command}"]) == 0, command
print("scipy.linalg" in sys.modules)
"""


def test_cli_runs_without_importing_scipy_linalg(tmp_path):
    # scipy.linalg's import is most of a CLI call's start-up; layerburn.lapack
    # binds the LAPACK routines from scipy's extension without it
    cfg = _write(tmp_path, BASE_CFG)
    src = str(Path(io_cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    lines = subprocess.run([sys.executable, "-c", _CLI_WITHOUT_SCIPY_LINALG, cfg, str(tmp_path)],
                           capture_output=True, text=True, env=env, check=True).stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")  # after the import, after both runs
    assert (tmp_path / "simulate_snap_00000.csv").is_file()


def _interned_by_round_trip(folder, snapshots, monkeypatch):
    """sys.intern calls of writing and reading back `snapshots` snapshots."""
    grid = make_grid(-1.0, 1.0, 5)
    values = np.random.default_rng(4).standard_normal((snapshots, 2, grid.m))
    traj = SolutionTrajectory(0.01 * np.arange(snapshots), values, grid)
    folder.mkdir()
    calls = []
    intern = sys.intern
    with monkeypatch.context() as patch:
        patch.setattr(sys, "intern", lambda text: calls.append(text) or intern(text))
        write_trajectory(traj, folder / "run")
        read_trajectory(folder / "run")
    return len(calls)


def test_trajectory_round_trip_interns_no_name_per_snapshot(tmp_path, monkeypatch):
    # interned strings live as long as the interpreter, so a write or read
    # must not intern each snapshot's name, as a pathlib join does
    few = _interned_by_round_trip(tmp_path / "few", 3, monkeypatch)
    many = _interned_by_round_trip(tmp_path / "many", 501, monkeypatch)
    assert many == few


def test_read_trajectory_accepts_crlf_and_trailing_blank_lines(tmp_path):
    traj = _toy_trajectory()
    table = np.random.default_rng(9).uniform(0.0, 1.0, traj.values.shape)
    for path in write_trajectory(traj, tmp_path / "toy", table):
        text = open(path, newline="").read()
        with open(path, "w", newline="") as fh:
            fh.write(text.replace("\n", "\r\n") + "\r\n\r\n\n")
    assert b"\r\n" in (tmp_path / "toy_snap_00001.csv").read_bytes()
    back, fuel = read_trajectory(tmp_path / "toy")
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.values, traj.values)
    np.testing.assert_array_equal(fuel, table)
    assert back.grid == traj.grid


@pytest.mark.parametrize("header", ["x,u_1,u_2", "x,u_1,u_2,y_1", "x,u_2,u_1,y_1,y_2", ""])
def test_read_trajectory_rejects_a_later_header_that_differs(tmp_path, header):
    # the first snapshot fixes the layout; a later one must repeat its header
    traj = _toy_trajectory()
    table = np.random.default_rng(10).uniform(0.0, 1.0, traj.values.shape)
    write_trajectory(traj, tmp_path / "toy", table)
    bad = tmp_path / "toy_snap_00002.csv"
    lines = bad.read_text().splitlines(keepends=True)
    bad.write_text("".join([header + "\n"] + lines[1:]))
    with pytest.raises(ValueError, match="toy_snap_00002.csv: header .* differs"):
        read_trajectory(tmp_path / "toy")


@pytest.mark.parametrize("damage, message", [
    ("missing cell", r"invalid column index 2 at row 4 with 2 columns"),
    ("extra cell", None),  # np.loadtxt reads the columns it uses and ignores the rest
    ("one row short", r"could not broadcast input array from shape \(2,10\)"),
    ("one row long", r"could not broadcast input array from shape \(2,12\)"),
    ("abc cell", r"could not convert string 'abc' to float64 at row 3, column 2"),
])
def test_read_trajectory_reads_a_damaged_later_snapshot_as_loadtxt(tmp_path, damage, message):
    # a later snapshot that is not m rows of whole cells, or holds a cell
    # outside the parser's grammar, is read by np.loadtxt, as every snapshot was
    traj = _toy_trajectory()
    write_trajectory(traj, tmp_path / "toy")
    bad = tmp_path / "toy_snap_00001.csv"
    lines = bad.read_text().splitlines(keepends=True)
    x, u_1, u_2 = lines[4].split(",")
    lines[4] = {"missing cell": f"{x},{u_1}\n", "extra cell": f"{x},{u_1},{u_2[:-1]},0.5\n",
                "abc cell": f"{x},abc,{u_2}"}.get(damage, lines[4])
    lines = {"one row short": lines[:-1], "one row long": lines + lines[-1:]}.get(damage, lines)
    bad.write_text("".join(lines))
    if message is None:
        back, _ = read_trajectory(tmp_path / "toy")
        assert back.values.tobytes() == traj.values.tobytes()
    else:
        with pytest.raises(ValueError, match=message):
            read_trajectory(tmp_path / "toy")


def test_read_trajectory_files_larger_than_the_read_block(tmp_path, monkeypatch):
    # each later snapshot then fills a block of its own, in a grown buffer
    monkeypatch.setattr(io_cli, "_READ_BLOCK", 64)
    traj = _toy_trajectory()
    table = np.random.default_rng(15).uniform(0.0, 1.0, traj.values.shape)
    write_trajectory(traj, tmp_path / "toy", table)
    assert (tmp_path / "toy_snap_00001.csv").stat().st_size > 64
    back, fuel = read_trajectory(tmp_path / "toy")
    assert back.values.tobytes() == traj.values.tobytes()
    assert fuel.tobytes() == table.tobytes()


def test_read_trajectory_peak_memory_of_the_drift_shape(tmp_path):
    # 501 snapshots of 1024 nodes with two layers, as the drift run writes
    # them: 31 MB of text, read a block of files at a time
    grid = make_grid(-10.0, 10.0, 1024)
    values = np.random.default_rng(14).standard_normal((501, 2, grid.m))
    traj = SolutionTrajectory(0.001 * np.arange(501), values, grid)
    write_trajectory(traj, tmp_path / "drift")
    read_trajectory(tmp_path / "drift")  # the kernel's tables are built once
    tracemalloc.start()
    try:
        back, _ = read_trajectory(tmp_path / "drift")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == values.tobytes()
    # 2.3 MB above the 8.2 MB output measured; the text itself would be 35 MB
    assert peak < values.nbytes + 3e6


def test_read_empty_trajectory_raises(tmp_path):
    grid = make_grid(0.0, 1.0, 5)
    empty = SolutionTrajectory(np.zeros(0), np.zeros((0, 2, 5)), grid)
    assert write_trajectory(empty, tmp_path / "none") == [str(tmp_path / "none_index.csv")]
    assert (tmp_path / "none_index.csv").read_text() == "time,filename\n"
    with pytest.raises(ValueError, match="empty trajectory"):
        read_trajectory(tmp_path / "none")


def test_report_file_contains_the_audit(tmp_path):
    prob = parse_config(BASE_CFG).problem()
    report = audit_problem(prob, 0.2)
    path = write_report(report, tmp_path / "report.txt")
    text = (tmp_path / "report.txt").read_text()
    assert "[H1]" in text and "T_prime" in text
    assert path.endswith("report.txt")


# ---------------------------------------------------------------------------
# front tracking


def test_front_track_finds_leftmost_crossing():
    grid = make_grid(0.0, 1.0, 11)
    vals = np.zeros((2, 2, 11))
    vals[0, 0, 7:] = 1.0          # front at x = 0.7
    vals[1, 0, 4:] = 1.0          # moved left to x = 0.4
    vals[:, 1, :] = 0.1           # never crosses
    traj = SolutionTrajectory(np.array([0.0, 1.0]), vals, grid)
    thr, pos = front_track(traj, u_e=0.0, threshold=0.5)
    assert thr == 0.5
    assert pos[0, 0] == pytest.approx(0.7)
    assert pos[1, 0] == pytest.approx(0.4)
    assert math.isnan(pos[0, 1]) and math.isnan(pos[1, 1])
    vals[:, 1, 9] = 0.5           # equal to the threshold counts as a crossing
    _, pos = front_track(SolutionTrajectory(np.array([0.0, 1.0]), vals, grid), 0.0, 0.5)
    assert pos[0, 1] == pos[1, 1] == grid.x[9]


def test_front_threshold_default_is_half_excess():
    grid = make_grid(0.0, 1.0, 11)
    vals = np.full((1, 2, 11), 0.2)
    vals[0, 0, 5] = 1.0
    traj = SolutionTrajectory(np.array([0.0]), vals, grid)
    assert front_threshold_default(traj, 0.2) == pytest.approx(0.6)
    thr, _ = front_track(traj, 0.2)
    assert thr == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# CLI: exit codes and artifacts


def test_cli_simulate_writes_everything(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CFG)
    code = cli(["simulate", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run_index.csv").exists()
    assert (tmp_path / "run_snap_00000.csv").exists()
    assert (tmp_path / "run_snap_00020.csv").exists()
    summary = (tmp_path / "run_summary.txt").read_text()
    assert "apriori_ok: true" in summary
    assert "worst_gap_ratio:" in summary
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["package"] == "layerburn"
    assert manifest["subcommand"] == "simulate"
    assert manifest["resolved_solver"]["dt"] == 0.01
    assert "run_summary.txt" in manifest["outputs"]
    out = capsys.readouterr().out
    assert "simulate: 21 snapshots" in out

    back, fuel = read_trajectory(tmp_path / "run")
    assert fuel is None
    assert back.times.size == 21


def test_cli_simulate_coupled_writes_fuel(tmp_path):
    text = BASE_CFG.replace("[fuel]", "[fuel]\nmode = coupled")
    cfg = _write(tmp_path, text)
    assert cli(["simulate", cfg, "--out", str(tmp_path / "coup")]) == 0
    back, fuel = read_trajectory(tmp_path / "coup")
    assert fuel is not None and fuel.shape == back.values.shape
    assert fuel.min() >= 0.0 and fuel.max() <= 1.0


def test_cli_coupled_summary_lists_every_pass(tmp_path):
    text = BASE_CFG.replace("[fuel]", "[fuel]\nmode = coupled")
    cfg = _write(tmp_path, text)
    assert cli(["simulate", cfg, "--out", str(tmp_path / "coup")]) == 0
    summary = dict(line.split(": ", 1) for line in
                   (tmp_path / "coup_summary.txt").read_text().splitlines()[1:])
    passes = [int(v) for v in summary["pass_picard_iterations"].split(",")]
    assert len(passes) == int(summary["outer_passes"]) >= 2
    assert passes[-1] == int(summary["total_picard_iterations"])
    assert passes[-1] < passes[0]  # later passes start from the pass before
    ratios = [float(v) for v in summary["pass_worst_gap_ratio"].split(",")]
    assert len(ratios) == len(passes)  # one value per pass
    assert ratios[-1] == float(summary["worst_gap_ratio"])
    assert 0.0 < max(ratios) < 0.5  # the first, cold pass records contraction
    tols = [float(v) for v in summary["pass_picard_tol"].split(",")]
    assert len(tols) == len(passes)  # one value per pass
    assert tols[-1] == parse_config(text).solver.picard_tol  # the last pass is exact
    assert tols[0] > tols[-1]  # the first pass is forced
    keys = list(summary)
    assert keys.index("pass_picard_tol") == keys.index("pass_worst_gap_ratio") + 1

    plain = _write(tmp_path, BASE_CFG, "plain.cfg")
    assert cli(["simulate", plain, "--out", str(tmp_path / "plain")]) == 0
    assert "outer_passes" not in (tmp_path / "plain_summary.txt").read_text()


def _summary(path) -> dict:
    return dict(line.split(": ", 1) for line in Path(path).read_text().splitlines()[1:])


@pytest.mark.parametrize("name", ["drift_benchmark", "reactive_two_layer",
                                  "ignition_coupled", "dependence_study"])
def test_cli_shipped_configs_report_no_ratio_violation(tmp_path, name):
    assert cli(["simulate", str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path / "run")]) == 0
    assert _summary(tmp_path / "run_summary.txt")["picard_ratio_violations"] == "0"


@pytest.mark.parametrize("mode", ["prescribed", "coupled"])
def test_cli_summary_counts_ratios_above_one_half(tmp_path, monkeypatch, mode):
    # with K = 20, one window over the whole run and a budget of 200 sweeps
    # forced, the first sweeps contract by 0.66 > 1/2: the summary counts them
    text = (CONFIGS / "reactive_two_layer.cfg").read_text()
    text = re.sub(r"(?m)^m = .*$", "m = 201", text)
    text = re.sub(r"(?m)^(K_[12]) = .*$", r"\1 = constant(20)", text)
    text = re.sub(r"(?m)^dt = .*$", "dt = 0.01", text)
    text = re.sub(r"(?m)^mode = .*$", f"mode = {mode}", text)
    monkeypatch.setattr(mild_solver, "_sweep_budget", lambda first_gap, tol: 200)
    monkeypatch.setattr(mild_solver, "_continuation_eps",
                        lambda p, fuel, t0, phi_norm, beta, T: T)
    assert cli(["simulate", _write(tmp_path, text), "--out", str(tmp_path / "run")]) == 0
    summary = _summary(tmp_path / "run_summary.txt")
    # a coupled run's worst_gap_ratio is its last pass's; the first pass's is 0.66
    ratios = summary.get("pass_worst_gap_ratio", summary["worst_gap_ratio"])
    assert max(float(r) for r in ratios.split(",")) > 0.5
    assert int(summary["picard_ratio_violations"]) >= 1


def test_cli_check_hypotheses_pass_and_fail(tmp_path, capsys):
    good = _write(tmp_path, BASE_CFG, "good.cfg")
    assert cli(["check-hypotheses", good, "--out", str(tmp_path / "ok")]) == 0
    assert "pass" in capsys.readouterr().out
    assert (tmp_path / "ok_hypotheses.txt").exists()

    bad_text = BASE_CFG.replace("q_1 = constant(0.15)",
                                "q_1 = constant(0.15)\nqhat_1 = constant(0.2)")
    bad = _write(tmp_path, bad_text, "bad.cfg")
    assert cli(["check-hypotheses", bad, "--out", str(tmp_path / "no")]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_oracle_compare(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CFG)
    assert cli(["oracle-compare", cfg, "--out", str(tmp_path / "orc")]) == 0
    rows = (tmp_path / "orc_oracle.csv").read_text().strip().splitlines()
    assert rows[0] == "dt,relative_gap,observed_order"
    assert len(rows) == 4
    assert "oracle-compare: finest relative gap" in capsys.readouterr().out


def test_cli_oracle_compare_zero_data_leaves_orders_empty(tmp_path, capsys):
    # zero data keeps both solutions at zero, so every gap is 0 and has no order
    text = BASE_CFG.replace("d_1 = bump(0, 0.4, 0, 2)", "d_1 = constant(0)")
    text = text.replace("phi_1 = bump(0, 1.2, 0, 1)", "phi_1 = constant(0)")
    cfg = _write(tmp_path, text)
    assert cli(["oracle-compare", cfg, "--out", str(tmp_path / "orc")]) == 0
    rows = (tmp_path / "orc_oracle.csv").read_text().strip("\n").splitlines()
    assert rows[0] == "dt,relative_gap,observed_order"
    assert [row.split(",")[1:] for row in rows[1:]] == [["0", ""]] * 3
    assert "orders n/a, n/a ->" in capsys.readouterr().out


def test_cli_oracle_compare_source_free_gaps_are_round_off_without_order(tmp_path, capsys):
    # with no source the marcher and the trapezoid oracle take the same
    # theta = 1/2 steps, so every gap is round-off below the Picard floor
    # picard_tol*(1 + S)/S and its log2 ratio is noise, not an order
    cfg = _write(tmp_path, dedent("""\
        [grid]
        x_min = -6
        x_max = 6
        m = 81

        [layers]
        n = 2
        c_1 = constant(0.5)
        c_2 = constant(0.3)

        [fuel]
        y_1 = constant(1)
        y_2 = constant(1)

        [run]
        T = 0.2
        dt = 0.01
        phi_1 = bump(0, 1, 0, 1)
        phi_2 = bump(0.5, 0.4, 0, 1)
        """))
    assert cli(["oracle-compare", cfg, "--out", str(tmp_path / "orc")]) == 0
    rows = (tmp_path / "orc_oracle.csv").read_text().strip("\n").splitlines()
    gaps = [float(row.split(",")[1]) for row in rows[1:]]
    assert len(gaps) == 3 and all(0 < gap < 1e-12 for gap in gaps)
    assert [row.split(",")[2] for row in rows[1:]] == [""] * 3
    assert "orders n/a, n/a ->" in capsys.readouterr().out


def test_refine_in_time_is_exact_on_even_nodes():
    # refined twice in place in one buffer of the finest lattice, as the
    # oracle ladder does: even nodes keep the rows above, odd nodes are the
    # means of their neighbours, with the bits of an out-of-place refinement
    coarse = np.random.default_rng(3).standard_normal((6, 2, 9))
    buf = np.full((21, 2, 9), np.nan)
    buf[:6] = coarse
    fine = _refine_in_time(buf, 6)
    assert fine.shape == (11, 2, 9) and np.shares_memory(fine, buf)
    assert np.array_equal(fine[::2], coarse)
    assert np.array_equal(fine[1::2], 0.5 * (coarse[:-1] + coarse[1:]))
    ref = fine.copy()
    finest = _refine_in_time(buf, 11)
    assert finest.shape == (21, 2, 9) and np.shares_memory(finest, buf)
    assert np.array_equal(finest[::2], ref)
    assert np.array_equal(finest[1::2], 0.5 * (ref[:-1] + ref[1:]))


def test_cli_oracle_compare_seeds_each_finer_rung(tmp_path, monkeypatch):
    # the 2h and h solves start from the rung above carried to their lattice,
    # and land within 1e-9 of solving the rung from the cold seed
    calls = []

    def recording(problem, T, cfg, *, report=None, guess=None):
        seed = None if guess is None else guess.copy()  # the solve runs in guess
        res = solve_global(problem, T, cfg, report=report, guess=guess)
        # the finer rungs share one buffer, so each rung is recorded as a copy
        calls.append((problem, T, cfg, seed, res, report, res.trajectory.values.copy()))
        return res

    monkeypatch.setattr(io_cli, "solve_global", recording)
    cfg = _write(tmp_path, BASE_CFG)
    assert cli(["oracle-compare", cfg, "--out", str(tmp_path / "orc")]) == 0
    assert [c[2].dt for c in calls] == pytest.approx([0.04, 0.02, 0.01])
    assert calls[0][3] is None and calls[0][5] is None
    for above, (problem, T, rung_cfg, guess, warm, report, solved) in zip(calls, calls[1:]):
        assert np.array_equal(guess[::2], above[6])
        assert report is calls[0][4].report  # one audit for the whole ladder
        cold = solve_global(problem, T, rung_cfg)
        assert warm.total_iterations < cold.total_iterations
        assert sup_metric(dataclasses.replace(warm.trajectory, values=solved), cold.trajectory) \
            <= 1e-9 * cold.trajectory.sup_norm()


def test_oracle_compare_peak_stays_under_1_4_finest_trajectories(tmp_path):
    # the 2h and h rungs solve in one buffer of the h lattice, refined in
    # place after each comparison, and the MOL reference is reduced a block
    # of nodes at a time: the peak is that buffer beside the cold 4h rung
    # copied into its head, 1.30 finest trajectories measured (1.54 with a
    # fresh seed beside each rung, 2.52 while the whole MOL reference was held)
    config = parse_config((CONFIGS / "reactive_two_layer.cfg").read_text())
    h = config.experiment["oracle_dt"]
    finest = (round(config.T / h) + 1) * config.n * config.grid.m * 8
    tracemalloc.start()
    try:
        assert cli(["oracle-compare", str(CONFIGS / "reactive_two_layer.cfg"),
                    "--out", str(tmp_path / "orc")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * finest


def test_cli_dependence_study(tmp_path, capsys):
    text = BASE_CFG + dedent("""\
        [experiment]
        levels = 3
        perturb_phi_1 = bump(0, 0.1, 0, 2)
    """)
    cfg = _write(tmp_path, text)
    assert cli(["dependence-study", cfg, "--out", str(tmp_path / "dep")]) == 0
    rows = (tmp_path / "dep_dependence.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    assert "decreasing=true" in capsys.readouterr().out

    plain = _write(tmp_path, BASE_CFG, "plain.cfg")
    assert cli(["dependence-study", plain]) == 1  # no perturb directions


def test_cli_dependence_csv_keeps_a_skipped_level_on_one_line(tmp_path):
    # a = 1 - 1.5 s is not positive at s = 1: the audit fails that level and
    # its reason is one line, so every row parses to the header's columns
    text = (CONFIGS / "dependence_study.cfg").read_text()
    text, count = re.subn(r"(?m)^perturb_a_1 = .*$", "perturb_a_1 = constant(-1.5)", text)
    assert count == 1
    cfg = _write(tmp_path, text)
    assert cli(["dependence-study", cfg, "--out", str(tmp_path / "dep")]) == 0
    lines = (tmp_path / "dep_dependence.csv").read_text().splitlines()
    assert len(lines) == 9 + 1
    head = lines[0].split(",")
    assert head == ["level", "s", "delta", "ratio", "bound", "within_bound",
                    "above_floor", "picard_sweeps", "skipped"]
    rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    assert all(len(ln.split(",")) == len(head) for ln in lines[1:])
    assert rows[0]["skipped"] == "AuditError: admissibility audit failed:"
    assert rows[0]["delta"] == rows[0]["picard_sweeps"] == ""
    for row in rows[1:]:
        assert row["skipped"] == ""
        assert int(row["picard_sweeps"]) >= 1
        assert float(row["delta"]) > 0.0


def test_cli_front_track(tmp_path):
    cfg = _write(tmp_path, BASE_CFG)
    assert cli(["front-track", cfg, "--out", str(tmp_path / "ft")]) == 0
    rows = (tmp_path / "ft_front.csv").read_text().strip().splitlines()
    assert rows[0] == "time,front_1,front_2"
    assert len(rows) == 22


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli([]) == 1
    assert cli(["simulate"]) == 1  # missing config argument
    assert cli(["simulate", str(tmp_path / "missing.cfg")]) == 4
    bad = _write(tmp_path, BASE_CFG.replace("[grid]", "[mesh]"), "bad.cfg")
    assert cli(["simulate", bad]) == 1

    audit_fail = _write(tmp_path, BASE_CFG.replace(
        "q_1 = constant(0.15)", "q_1 = constant(0.15)\nqhat_1 = constant(0.2)"),
        "audit.cfg")
    assert cli(["simulate", audit_fail, "--out", str(tmp_path / "a")]) == 2

    blow = _write(tmp_path, BASE_CFG, "blow.cfg")
    with monkeypatch.context() as patch:
        patch.setattr(mild_solver, "BLOWUP_CEILING", 0.5)
        assert cli(["simulate", blow, "--out", str(tmp_path / "b")]) == 3

    lattice = _write(tmp_path, BASE_CFG.replace("dt = 0.01", "dt = 0.03"),
                     "lat.cfg")
    assert cli(["simulate", lattice, "--out", str(tmp_path / "c")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check-hypotheses", "simulate"])
def test_cli_overflowing_phi_norm_exits_3(tmp_path, capsys, recwarn, command):
    # ||phi|| is a finite float, so rho = 2||phi|| is finite, but the source's
    # magnitude mu on the ball of radius rho overflows: no certificate
    cfg = _write(tmp_path, BASE_CFG.replace("phi_1 = bump(0, 1.2, 0, 1)",
                                            "phi_1 = bump(0, 1e200, 0, 1)"))
    assert cli([command, cfg, "--out", str(tmp_path / "h")]) == 3
    err = capsys.readouterr().err
    found = re.search(r"solver failure: no certificate: rho = (\S+), .* mu = inf must be finite", err)
    assert found and float(found.group(1)) == pytest.approx(2.23903e200, rel=1e-5)
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["check-hypotheses", "simulate"])
def test_cli_window_shorter_than_dt_exits_3(tmp_path, capsys, command):
    # at E = 1e-4 the reaction is stiff enough that the certified window
    # (T' = 4.6e-4 for check-hypotheses) is shorter than dt = 1e-3
    text = (CONFIGS / "reactive_two_layer.cfg").read_text()
    cfg = _write(tmp_path, re.sub(r"(?m)^E = .*$", "E = 1e-4", text))
    assert cli([command, cfg, "--out", str(tmp_path / "w")]) == 3
    captured = capsys.readouterr()
    assert "hypotheses: pass" not in captured.out
    assert re.search(r"solver failure: certified window \S+ at t0 = 0 is shorter "
                     r"than the step dt = 0\.001; a dt of at most \S+ certifies this "
                     r"window only, and T must stay a whole number of steps", captured.err)
    assert "Traceback" not in captured.err
    assert not list(tmp_path.glob("w_*"))  # no report or manifest that says pass


@pytest.mark.parametrize("command, code", [("check-hypotheses", 0), ("simulate", 3)])
def test_cli_overflowing_continuation_radius_exits_3(tmp_path, capsys, recwarn, command, code):
    # forced central differences at c = 103 on the drift grid give beta = 850,
    # so the first continuation radius 2*||phi||*e^(beta*(t0+1)) overflows:
    # the source-free audit passes, and simulate certifies no window
    text = (CONFIGS / "drift_benchmark.cfg").read_text()
    text = re.sub(r"(?m)^(c_[12]) = .*$", r"\1 = constant(103)", text)
    cfg = _write(tmp_path, re.sub(r"(?m)^dt = .*$", "\\g<0>\nscheme = central", text))
    assert cli([command, cfg, "--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert re.search(r"solver failure: no continuation window at t0 = 0: the radius "
                         r".* overflows \(\|\|u\|\| = \S+, beta = 849\.671\)", err)
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["check-hypotheses", "simulate"])
def test_cli_overflowing_audit_radius_exits_3(tmp_path, capsys, recwarn, command):
    # the same drift run to T = 1: beta*T = 850 overflows the audit's radius
    # R = 2*rho*e^(beta*T) itself, so no contraction window is certified
    text = (CONFIGS / "drift_benchmark.cfg").read_text()
    text = re.sub(r"(?m)^(c_[12]) = .*$", r"\1 = constant(103)", text)
    text = re.sub(r"(?m)^T = .*$", "T = 1.0", text)
    cfg = _write(tmp_path, re.sub(r"(?m)^dt = .*$", "\\g<0>\nscheme = central", text))
    assert cli([command, cfg, "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"solver failure: no certificate: rho = \S+, R = inf, ", err)
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_guess_off_the_lattice_exits_3(tmp_path, monkeypatch, capsys):
    # a Picard guess of the wrong shape is a solver bug, not a config error
    def off_lattice(problem, T, cfg, *, guess=None):
        return solve_global(problem, T, cfg, guess=np.zeros((3,) + problem.phi.shape))

    monkeypatch.setattr(io_cli, "solve_global", off_lattice)
    cfg = _write(tmp_path, BASE_CFG)
    assert cli(["simulate", cfg, "--out", str(tmp_path / "g")]) == 3
    assert "solver failure: Picard guess has shape" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda shape: np.zeros(shape, order="F"),
    lambda shape: np.zeros(shape, dtype=np.float32),
    lambda shape: np.broadcast_to(np.zeros(shape[1:]), shape),  # read-only
], ids=["fortran-order", "float32", "read-only"])
def test_cli_guess_the_solve_cannot_run_in_exits_3(tmp_path, monkeypatch, capsys, make):
    # the solve runs in its guess; one it cannot write in place is a solver
    # bug too, not a numpy ValueError reported as a config error
    def unwritable(problem, T, cfg, *, guess=None):
        shape = (int(round(T / cfg.dt)) + 1,) + problem.phi.shape
        return solve_global(problem, T, cfg, guess=make(shape))

    monkeypatch.setattr(io_cli, "solve_global", unwritable)
    cfg = _write(tmp_path, BASE_CFG)
    assert cli(["simulate", cfg, "--out", str(tmp_path / "g")]) == 3
    assert "solver failure: Picard guess must be a writeable" in capsys.readouterr().err


def test_cli_manifest_does_not_depend_on_the_config_folder(tmp_path):
    # the manifest names the config by its file name, as it names its outputs;
    # config_sha256 and config_echo identify the content
    manifests = []
    for folder in (tmp_path / "a", tmp_path / "a_much_longer_folder" / "b"):
        folder.mkdir(parents=True)
        cfg = _write(folder, BASE_CFG)
        assert cli(["simulate", cfg, "--out", str(folder / "run")]) == 0
        manifests.append((folder / "run_manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["config_file"] == "case.cfg"


def test_cli_outdir_redirects_relative_prefixes(tmp_path, monkeypatch):
    cfg = _write(tmp_path, BASE_CFG)
    monkeypatch.setenv("LAYERBURN_OUTDIR", str(tmp_path / "nested"))
    assert cli(["simulate", cfg, "--out", "redir"]) == 0
    assert (tmp_path / "nested" / "redir_index.csv").exists()
    assert (tmp_path / "nested" / "redir_manifest.json").exists()
