"""Self-test of the benchmark itself.

For every workload (seed 0) it checks that

- a traced repetition writes byte-identical outputs to an untraced one, and
  both pass the workload's output check;
- for every step, a deliberately corrupted output fails the check and is
  counted by the same failure tally that feeds `failed` (and so fail_frac)
  in run.py.

Run from the root of a layerburn checkout (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and checks the checkout before numpy loads
from layerburn import io_cli
from tracer import Tracer
from workloads import DEPENDENCE, DRIFT, IGNITION, WORKLOADS, check, make_configs


def _edit_cell(path: Path, row: int, col: str, fn) -> None:
    """Replace one CSV cell (data row `row`, header `col`) by fn(old text)."""
    lines = path.read_text().splitlines()
    j = lines[0].split(",").index(col)
    cells = lines[row + 1].split(",")
    cells[j] = fn(cells[j])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def corrupt(step, out_dir: Path) -> None:
    """The smallest damage each step's check exists to catch."""
    stem = step.stem
    if step is DRIFT:  # one value off in its last bits
        _edit_cell(out_dir / f"{stem}_snap_00250.csv", 500, "u_1",
                   lambda v: repr(float(v) * (1.0 + 1e-12)))
    elif step is IGNITION:  # fuel above its initial level
        _edit_cell(out_dir / f"{stem}_snap_00300.csv", 200, "y_1", lambda v: "1.5")
    elif step is DEPENDENCE:  # a response outside its bound
        _edit_cell(out_dir / f"{stem}_dependence.csv", 3, "within_bound", lambda v: "false")
    else:  # an observed order far from 2
        _edit_cell(out_dir / f"{stem}_oracle.csv", 2, "observed_order", lambda v: "1.5")


def selftest(steps, tmp: Path) -> list[str]:
    errors = []
    texts = make_configs(run.ROOT, steps, 0)
    config_paths = [tmp / Path(step.config).name for step in steps]
    for path, text in zip(config_paths, texts):
        path.write_text(text)

    plain, readback = run.iterate(steps, config_paths, tmp / "plain", None)
    traced, _ = run.iterate(steps, config_paths, tmp / "traced", Tracer())
    if plain["rc"] != 0 or traced["rc"] != 0:
        return [f"exit codes {plain['rc']}, {traced['rc']}"]
    if plain["digest"] != traced["digest"]:
        errors.append("traced run wrote different bytes than the untraced run")
    ok, _, notes = check(steps, texts, tmp / "plain", readback)
    if not ok or run.tally([plain, traced], ok) != 0:
        errors.append(f"clean output failed its check: {notes}")

    # Damage one step's output at a time, in a fresh copy of the clean output.
    for step in steps:
        damaged_dir = tmp / f"damaged-{step.name}"
        shutil.copytree(tmp / "plain", damaged_dir)
        corrupt(step, damaged_dir)
        damaged = dict(plain, digest=run.survey(damaged_dir)[2])
        bad_readback = (io_cli.read_trajectory(damaged_dir / step.stem)[0]
                        if step is DRIFT else None)
        bad_ok, _, _ = check(steps, texts, damaged_dir, bad_readback)
        if bad_ok:
            errors.append(f"{step.name}: the corrupted output passed its check")
        if run.tally([damaged], bad_ok) != 1 or run.tally([plain, damaged], ok) != 1:
            errors.append(f"{step.name}: the corrupted output was not counted as failed")
    return errors


def main() -> int:
    scratch = run.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    failures = 0
    for name, steps in WORKLOADS.items():
        tmp = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=scratch))
        try:
            errors = selftest(steps, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        failures += bool(errors)
        print(f"{name}: {'FAIL ' + '; '.join(errors) if errors else 'pass'}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
