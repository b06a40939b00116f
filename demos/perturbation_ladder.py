"""Continuous dependence, measured: halve the data perturbation, halve the
solution response, and never exceed the Gronwall-form bound."""

from pathlib import Path

from layerburn.dependence import dependence_study
from layerburn.io_cli import parse_config
from layerburn.mild_solver import SolverConfig

cfg = parse_config(
    (Path(__file__).resolve().parents[1] / "configs" / "dependence_study.cfg").read_text())
problem, T, spec = cfg.problem(), cfg.T, cfg.perturbation_spec()
print(f"perturbing {', '.join(sorted(spec.directions))} on the reactive fixture, "
      f"T = {T}")

study = dependence_study(problem, T, spec, SolverConfig(dt=0.004))

print(f"{'j':>3} {'s':>12} {'delta':>12} {'ratio':>7} {'bound':>12} {'ok':>4}")
prev = None
for j, lv in enumerate(study.levels):
    if lv.skipped:
        print(f"{j:>3} {lv.level:>12.5g} skipped: {lv.skipped}")
        prev = None
        continue
    ratio = f"{lv.delta / prev:7.3f}" if prev else "       "
    print(f"{j:>3} {lv.level:>12.5g} {lv.delta:12.4e} {ratio} "
          f"{lv.bound:12.4e} {'yes' if lv.within_bound else 'NO':>4}")
    prev = lv.delta

print()
print(f"noise floor {study.noise_floor:.2e} "
      f"(crossover at level {study.crossover})")
print(f"deltas decreasing: {study.decreasing}; "
      f"all within bound: {study.all_within_bound}")
