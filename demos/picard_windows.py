# How the marcher spends its budget: certified windows, sweep counts, and the
# measured contraction per sweep. Also shows that the fixed point does not
# care where the iteration started.

from pathlib import Path

from layerburn.grid import sup_metric
from layerburn.io_cli import parse_config
from layerburn.mild_solver import SolverConfig, solve_global

cfg = parse_config(
    (Path(__file__).resolve().parents[1] / "configs" / "reactive_two_layer.cfg").read_text())
problem, T = cfg.problem(), cfg.T

for mode in ("continuation", "contraction", "adaptive"):
    res = solve_global(problem, T, SolverConfig(dt=1e-3, window_mode=mode))
    print(f"=== window_mode = {mode} ===")
    print(f"{'window':>22} {'sweeps':>7} {'worst ratio':>12}")
    for w in res.windows:
        worst = max(w.ratios) if w.ratios else 0.0
        print(f"[{w.t_start:8.4f}, {w.t_end:8.4f}] {w.iterations:>7} {worst:>12.4f}")
    ap = res.apriori
    print(f"growth bound: sup ||u|| = {ap['observed']:.4f} <= {ap['bound']:.4f} "
          f"(kappa {ap['kappa']:.3f}, mu {ap['mu']:.3f}, beta {ap['beta']:.2e})")
    print()

# same lattice, two different seeds, one fixed point
hom = solve_global(problem, T, SolverConfig(dt=1e-3, seed_mode="homogeneous"))
ini = solve_global(problem, T, SolverConfig(dt=1e-3, seed_mode="initial"))
print(f"seed disagreement (homogeneous vs frozen initial): "
      f"{sup_metric(hom.trajectory, ini.trajectory):.3e}")
