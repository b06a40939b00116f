"""The benchmark workloads: seeded configs, the timed calls, output checks.

Why each workload was chosen is in README.md.

A workload is a sequence of steps; each step runs one `layerburn` subcommand
through `layerburn.io_cli.cli()` on a config generated from a shipped one.
Seed 0 is the shipped config unchanged; any other seed jitters each config's
`phi_1` hot spot (centre by at most CENTER_JITTER, amplitude by at most
AMP_JITTER as a share).  Those ranges keep the hot spot far from the guard
bands and, as measured on all four configs, leave the work done unchanged
(outer passes, windows, Picard sweeps), so the seed varies the inputs without
varying the amount of work.

The checks read what the run left on disk, never the benchmark's own timing,
and each returns (ok, ref_err, notes).  `ref_err` is the distance of the
delivered result to a reference that does not come from the code path being
timed: the closed-form solution for drift, the method-of-lines (MOL) oracle
for the other steps.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layerburn import io_cli
from layerburn.fixtures import drift_exact
from layerburn.grid import SolutionTrajectory
from layerburn.mild_solver import solve_global
from layerburn.model import Problem, TabulatedFuel
from layerburn.oracle import OracleConfig, mol_solve, relative_gap

CENTER_JITTER = 0.5
AMP_JITTER = 0.05

# Stated tolerances of the output checks.
DRIFT_REF_TOL = 5e-4  # seed 0 reads 1.86e-4
ORDER_TOL = 0.1  # observed refinement orders must lie within 0.1 of 2


@dataclass(frozen=True)
class Step:
    name: str
    config: str  # shipped config, relative to the checkout root
    command: str  # layerburn subcommand

    @property
    def stem(self) -> str:
        return Path(self.config).stem


DRIFT = Step("drift-roundtrip", "configs/drift_benchmark.cfg", "simulate")
IGNITION = Step("ignition-coupled", "configs/ignition_coupled.cfg", "simulate")
DEPENDENCE = Step("dependence-ladder", "configs/dependence_study.cfg", "dependence-study")
ORACLE = Step("oracle-ladder", "configs/reactive_two_layer.cfg", "oracle-compare")

WORKLOADS = {
    "drift-roundtrip": (DRIFT,),
    "solver-mix": (IGNITION, DEPENDENCE, ORACLE),
}

_BUMP_RE = re.compile(r"^(phi_(\d+)\s*=\s*)bump\(([^()]*)\)\s*$", re.MULTILINE)


def _bumps(text: str) -> dict[int, tuple[float, float, float, float]]:
    """{layer: (base, amplitude, centre, width)} for every phi_i given as bump."""
    return {int(m.group(2)): tuple(float(v) for v in m.group(3).split(","))
            for m in _BUMP_RE.finditer(text)}


def make_configs(root: Path, steps, seed: int) -> list[str]:
    """Config text per step: the shipped file, with phi_1 jittered unless seed 0."""
    rng = random.Random(seed)
    out = []
    for step in steps:
        text = (root / step.config).read_text()
        if seed:
            base, amp, center, width = _bumps(text)[1]
            center += rng.uniform(-CENTER_JITTER, CENTER_JITTER)
            amp *= 1.0 + rng.uniform(-AMP_JITTER, AMP_JITTER)
            new = f"bump({base!r}, {amp!r}, {center!r}, {width!r})"
            text = _BUMP_RE.sub(
                lambda m: m.group(1) + new if m.group(2) == "1" else m.group(0), text)
        out.append(text)
    return out


def node_steps(step: Step, config: io_cli.ProblemConfig) -> float:
    """n * m * (T / dt) summed over the trajectories the step delivers."""
    n, m, T = config.n, config.grid.m, config.T
    if step is ORACLE:
        h = config.experiment["oracle_dt"] or config.solver.dt
        # one mild and one MOL trajectory at each of dt = 4h, 2h, h
        return 2.0 * n * m * sum(T / dt for dt in (4.0 * h, 2.0 * h, h))
    steps = n * m * T / config.solver.dt
    if step is DEPENDENCE:
        return steps * (1 + config.experiment["levels"])  # base plus one per level
    return steps


def run_calls(steps, config_paths, out_dir: Path):
    """The timed work: the steps' CLI calls, plus the read-back after drift.

    `cli` and the reader are looked up on the module at call time so that a
    tracer that rebinds them is honoured.  Stops at the first nonzero exit
    code; returns (exit code, drift read-back or None).
    """
    readback = None
    for step, path in zip(steps, config_paths):
        prefix = out_dir / step.stem
        rc = io_cli.cli([step.command, str(path), "--out", str(prefix)])
        if rc != 0:
            return rc, None
        if step is DRIFT:
            readback = io_cli.read_trajectory(prefix)[0]
    return 0, readback


def check(steps, texts, out_dir: Path, readback) -> tuple[bool, float, list[str]]:
    """Check every step's outputs; ref_err is the largest of the steps' values."""
    ok, ref_err, notes = True, 0.0, []
    for step, text in zip(steps, texts):
        config = io_cli.parse_config(text)
        try:
            s_ok, s_err, s_notes = _CHECKS[step.name](config, text, out_dir / step.stem,
                                                       readback)
        except Exception as err:  # malformed output is a failed check, not a crash
            s_ok, s_err, s_notes = False, math.nan, [f"check raised {err!r}"]
        ok &= s_ok
        ref_err = max(ref_err, s_err) if math.isfinite(s_err) else math.nan
        notes += [f"{step.name}: ref_err {s_err:.6g}"] + [f"{step.name}: {n}" for n in s_notes]
    return ok, ref_err, notes


def _oracle_cfg(config: io_cli.ProblemConfig, dt: float) -> OracleConfig:
    return OracleConfig(integrator=config.experiment["oracle_integrator"], dt=dt,
                        scheme=config.solver.scheme,
                        newton_tol=config.experiment["oracle_newton_tol"])


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:] if ln]


def _check_drift(config, text, prefix, readback: SolutionTrajectory):
    notes = []
    memory = solve_global(config.problem(), config.T, config.solver).trajectory
    ok = (np.array_equal(readback.times, memory.times)
          and np.array_equal(readback.values, memory.values))
    if not ok:
        notes.append("read-back differs from the in-memory trajectory")
    x = readback.grid.x
    exact = np.empty_like(readback.values)
    for i, (_, amp, center, width) in _bumps(text).items():
        for k, t in enumerate(readback.times):
            exact[k, i - 1] = amp * drift_exact(x - center, float(t), s2=0.5 * width**2)
    ref_err = relative_gap(readback, SolutionTrajectory(readback.times, exact, readback.grid))
    if not ref_err <= DRIFT_REF_TOL:
        ok = False
        notes.append(f"ref_err {ref_err:.3e} above {DRIFT_REF_TOL:.0e}")
    return ok, ref_err, notes


def _check_ignition(config, text, prefix, _):
    notes = []
    summary = (prefix.parent / f"{prefix.name}_summary.txt").read_text()
    ok = "apriori_ok: true" in summary.splitlines()
    if not ok:
        notes.append("summary lacks apriori_ok: true")
    traj, fuel = io_cli.read_trajectory(prefix)
    y0 = config.fuel.sample(config.grid, 0.0)
    if fuel is None or fuel.min() < 0.0 or np.any(fuel > y0):
        ok = False
        notes.append("fuel table leaves [0, y0]")
    elif np.any(np.diff(fuel, axis=0) > 0.0):
        ok = False
        notes.append("fuel table increases in time")
    if fuel is None:
        return ok, math.nan, notes
    frozen = Problem(config.grid, config.params, TabulatedFuel(traj.times, fuel), config.phi)
    reference = mol_solve(frozen, config.T, _oracle_cfg(config, config.solver.dt))
    return ok, relative_gap(traj, reference), notes


def _check_dependence(config, text, prefix, _):
    notes = []
    rows = _csv_rows(prefix.parent / f"{prefix.name}_dependence.csv")
    ok = len(rows) == config.experiment["levels"] and all(not r["skipped"] for r in rows)
    if not ok:
        notes.append("not every level was solved")
    else:
        deltas = [float(r["delta"]) for r in rows]
        if not all(b < a for a, b in zip(deltas, deltas[1:])):
            ok = False
            notes.append("responses do not decrease")
        if not all(r["within_bound"] == "true" and float(r["delta"]) <= float(r["bound"])
                   for r in rows):
            ok = False
            notes.append("a response exceeds its Gronwall bound")
    # The ladder's base solve (the first call dependence_study makes) against MOL.
    problem = config.problem()
    base = solve_global(problem, config.T, config.solver).trajectory
    reference = mol_solve(problem, config.T, _oracle_cfg(config, config.solver.dt))
    return ok, relative_gap(base, reference), notes


def _check_oracle(config, text, prefix, _):
    notes = []
    rows = _csv_rows(prefix.parent / f"{prefix.name}_oracle.csv")
    orders = [float(r["observed_order"]) for r in rows[1:]]
    ok = len(rows) == 3 and all(abs(o - 2.0) <= ORDER_TOL for o in orders)
    if not ok:
        notes.append(f"observed orders {orders} not within {ORDER_TOL} of 2")
    return ok, float(rows[-1]["relative_gap"]), notes


_CHECKS = {
    DRIFT.name: _check_drift,
    IGNITION.name: _check_ignition,
    DEPENDENCE.name: _check_dependence,
    ORACLE.name: _check_oracle,
}
