"""Shared test helpers: the shipped configs, loaded as the CLI loads them,
and builders for small constant-coefficient problems."""

import re
from pathlib import Path

import numpy as np

from layerburn import (
    ConstantFuel,
    LayerParams,
    PrescribedFuel,
    Problem,
    make_grid,
)
from layerburn.io_cli import parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_config(name, m=None):
    """configs/<name>.cfg through parse_config, its grid's m replaced if given."""
    text = (CONFIGS / f"{name}.cfg").read_text()
    if m is not None:
        text, count = re.subn(r"(?m)^m = .*$", f"m = {m}", text)
        assert count == 1, f"{name}.cfg: {count} lines set m"
    return parse_config(text)


def shipped_problem(name, m=None):
    """(problem, T) of configs/<name>.cfg, as shipped_config builds it."""
    cfg = shipped_config(name, m)
    return cfg.problem(), cfg.T


def constant_problem(m=201, n=2, span=(-10.0, 10.0), phi_amp=1.0,
                     fuel_val=1.0, **params):
    """n identical layers with constant coefficients and a Gaussian hot spot."""
    grid = make_grid(span[0], span[1], m)
    p = LayerParams.constants(grid, n, **params)
    row = phi_amp * np.exp(-grid.x ** 2)
    phi = np.tile(row, (n, 1))
    fuel = PrescribedFuel([ConstantFuel(fuel_val)] * n)
    return Problem(grid, p, fuel, phi)


def random_field(grid, n, rng, scale=1.0):
    return scale * rng.standard_normal((n, grid.m))


def dense_theta_step(tri, h, theta=0.5):
    """Dense A^{-1} B of one layer's theta-step of length h, from the layer's
    generator bands tri (3, m): A = I + theta*h*L_h, B = I - (1-theta)*h*L_h."""
    sub, main, sup = tri
    L = np.diag(main) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    eye = np.eye(main.size)
    return np.linalg.solve(eye + theta * h * L, eye - (1.0 - theta) * h * L)


def smooth_bump(x, center, radius):
    """C-infinity bump supported on |x - center| < radius, value 1 at center."""
    xi = (np.asarray(x, dtype=float) - center) / radius
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi[inside] ** 2))
    return out
