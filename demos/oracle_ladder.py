# Cross-check the fixed-point marcher against the method-of-lines oracle.
# Same spatial stencil, two unrelated time integrators: the gap between them
# must shrink at second order as dt is halved.

from pathlib import Path

from layerburn.io_cli import parse_config
from layerburn.mild_solver import SolverConfig, solve_global
from layerburn.oracle import OracleConfig, mol_solve, refinement_orders, relative_gap

cfg = parse_config(
    (Path(__file__).resolve().parents[1] / "configs" / "reactive_two_layer.cfg").read_text())
problem, T = cfg.problem(), cfg.T
h = 5e-4

gaps = []
print(f"{'dt':>10} {'rel gap':>12} {'order':>7}")
for dt in (4 * h, 2 * h, h):
    mild = solve_global(problem, T, SolverConfig(dt=dt))
    oracle = mol_solve(problem, T, OracleConfig(dt=dt))
    gaps.append(relative_gap(mild.trajectory, oracle))
    order = f"{refinement_orders(gaps)[-1]:7.3f}" if len(gaps) > 1 else "       "
    print(f"{dt:>10.2e} {gaps[-1]:12.3e} {order}")

print()
print("the implicit-trapezoid oracle solves each step with a banded Newton")
print("iteration; the marcher iterates the Duhamel integral to a fixed point.")
print("agreement at O(dt^2) says neither path smuggled in its own physics.")
