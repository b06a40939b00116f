# Coupled ignition run: a hot Gaussian in layer 1 burns fuel and the front
# advects right. Prints the fuel budget and the tracked front positions.

from pathlib import Path

import numpy as np

from layerburn.io_cli import front_track, parse_config, write_trajectory
from layerburn.mild_solver import SolverConfig, solve_coupled

cfg = parse_config(
    (Path(__file__).resolve().parents[1] / "configs" / "ignition_coupled.cfg").read_text())
problem, T = cfg.problem(), cfg.T
res = solve_coupled(problem, T, SolverConfig(dt=0.004))
traj = res.trajectory
table = res.fuel.table
dx = problem.grid.dx

print(f"outer iterations: {res.outer_iterations} "
      f"(last fuel gap {res.y_gaps[-1]:.2e})")
print(f"fuel range over the run: [{table.min():.4f}, {table.max():.4f}]")

thr, pos = front_track(traj, problem.params.u_e)
print(f"front threshold: {thr:.3f}")
print(f"{'t':>6} {'front_1':>9} {'front_2':>9} {'fuel burned':>12}")
for k in range(0, traj.times.size, traj.times.size // 10):
    burned = float(np.sum(table[0] - table[k]) * dx)
    f2 = f"{pos[k, 1]:9.3f}" if np.isfinite(pos[k, 1]) else "      nan"
    print(f"{traj.times[k]:6.2f} {pos[k, 0]:9.3f} {f2} {burned:12.4f}")

# layer 2 starts cold; it only crosses the threshold once exchange heats it
paths = write_trajectory(traj, "ignition_run", fuel_table=table)
print(f"\nwrote {len(paths)} files under ignition_run_* "
      "(snapshots carry u_i and y_i columns)")
