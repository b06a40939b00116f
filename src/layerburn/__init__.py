"""Mild solutions of an n-layer porous-medium combustion model.

The model couples per-layer temperatures through interlayer exchange and an
Arrhenius reaction driven by a fuel field; this package builds the discrete
evolution operators, certifies the contraction constants behind local and
global solvability, marches the Duhamel fixed point, and cross-checks it
against independent method-of-lines integrators.  The command-line interface
lives in layerburn.io_cli.
"""

__version__ = "0.1.0"

from .grid import make_grid
from .model import ConstantFuel, LayerParams, PrescribedFuel, Problem
from .mild_solver import SolverConfig, solve_global

__all__ = [
    "ConstantFuel", "LayerParams", "PrescribedFuel", "Problem", "SolverConfig",
    "make_grid", "solve_global",
]
