"""Run the admissibility audit on the shipped fixtures and print the constants.

The audit checks the structural hypotheses (positive capacities and
conductivities, fuel regularity, decaying heat-loss profiles), then measures
the quantitative constants the solver plans its windows with: the source
Lipschitz bound kappa on the working ball, the magnitude bound mu, the
semigroup growth rate beta, and the certified contraction window T'.
"""

from pathlib import Path

from layerburn.hypothesis import audit_problem
from layerburn.io_cli import parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def load(name):
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    return cfg.problem(), cfg.T


for name, (problem, T) in (
    ("drift (source-free)", load("drift_benchmark")),
    ("reactive two-layer", load("reactive_two_layer")),
    ("ignition (prescribed fuel)", load("ignition_coupled")),
):
    report = audit_problem(problem, T)
    print(f"=== {name}, T = {T} ===")
    print(report.to_text())
    print()

# the same audit refuses a heat-loss profile that reaches the boundary
problem, T = load("reactive_two_layer")
bad = problem.with_params(qhat1=0.1 + 0.0 * problem.params.qhat1)
report = audit_problem(bad, T)
print("=== constant qhat_1 (inadmissible) ===")
print(report.to_text())
