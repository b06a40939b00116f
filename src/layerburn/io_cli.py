"""Config parsing, result serialization, and the command-line surface.

Config files are line-oriented `key = value` under `[section]` headers with
`#` comments.  Sections: [grid] (x_min, x_max, m), [layers] (n plus per-layer
function specs), [fuel] (mode and per-layer families), [run] (T, phi_i and
one key per SolverConfig field, of its type and with its default; T and dt
are required), [experiment] (oracle and dependence options).  Spatial
profiles are function specs

    constant(v)
    bump(base, amplitude, center, width)      base + amplitude*exp(-((x-c)/w)^2)
    tanh_step(left, right, center, width)     left + (right-left)*(1+tanh((x-c)/w))/2

and fuel families are constant(v), logistic_front(center, speed, width), or
gaussian_decay(center, width, rate).  Every number must be finite, and T must
be a whole number of dt steps.  Unknown keys and duplicate keys are rejected
with line numbers; positivity/nonnegativity requirements are checked at build
time so a config either yields an admissible problem or a located error.

Exit codes are a stable contract: 0 success, 1 usage or config error,
2 admissibility audit failure, 3 solver divergence or blow-up, 4 I/O failure.
Every run writes a JSON manifest (config echo, package version, resolved
solver settings) next to its outputs; CSV numbers carry 17 significant digits
('%.17g') so files round-trip bit-exactly.  Snapshot values are rendered a
block of whole snapshots at a time, each snapshot if it alone holds more than
_RENDER_BLOCK values, by a numpy kernel that writes exactly the bytes '%.17g'
writes (layerburn.g17; it passes the few values it cannot decide to '%.17g'
itself).  Set LAYERBURN_OUTDIR to redirect relative output paths.

A trajectory is one `<prefix>_snap_NNNNN.csv` per stored time, a header then
one row per grid node with columns x,u_1..u_n and, when a fuel table is
written, y_1..y_n; plus `<prefix>_index.csv` with columns
time,filename,norm_1..norm_n, one row per snapshot (per-layer L2 norms).
Every snapshot carries the same header and grid column; the reader takes the
grid and the layout from the first snapshot, read by np.loadtxt, and rejects
a later one whose header differs.  Later snapshots are read a block of files,
about _READ_BLOCK bytes, at a time and their value cells parsed by
layerburn.g17.parse, bit for bit as float() reads them; a file that is not
exactly the header, then m rows of cells each ended by ',' or (the last)
'\n', or that holds a cell outside g17.GRAMMAR (nan, inf, CRLF, a blank
line), is read by np.loadtxt as every snapshot was, errors included.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys
from dataclasses import MISSING, asdict, dataclass, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from .dependence import PerturbationSpec, dependence_study
from .evolution import SCHEMES
from .grid import Grid, SolutionTrajectory, layer_l2, make_grid, time_lattice
from .hypothesis import GrowthBoundError, HypothesisReport, audit_problem
from .mild_solver import (
    AuditError,
    CoupledResult,
    SolveResult,
    SolverConfig,
    SolverError,
    WINDOW_MODES,
    solve_coupled,
    solve_global,
    window_steps,
)
from .model import (
    ConstantFuel,
    GaussianDecayFuel,
    LogisticFrontFuel,
    LayerParams,
    PrescribedFuel,
    Problem,
    central_gradient,
    check_activation,
)
from .oracle import (
    INTEGRATORS,
    NewtonError,
    OracleConfig,
    StabilityError,
    mol_solve,
    refinement_orders,
    relative_gap,
)


class ConfigError(ValueError):
    """Config syntax or semantic error with line/field location in the message."""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# function specs


# each profile takes its spec's arguments, then the grid x
_PROFILES = {
    "constant": lambda value, x: np.full_like(x, value),
    "bump": lambda base, amp, center, width, x:
        base + amp * np.exp(-(((x - center) / width) ** 2)),
    "tanh_step": lambda left, right, center, width, x:
        left + (right - left) * 0.5 * (1.0 + np.tanh((x - center) / width)),
}
_SPEC_ARITY = {"constant": 1, "bump": 4, "tanh_step": 4}
_FUEL_ARITY = {"constant": 1, "logistic_front": 3, "gaussian_decay": 3}
_CALL_RE = re.compile(r"^([a-z_]+)\s*\(\s*([^()]*)\s*\)$")


def _parse_call(text: str, where: str, arity: dict) -> tuple[str, tuple]:
    m = _CALL_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{where}: expected name(arg, ...), got {text!r}")
    kind, body = m.group(1), m.group(2)
    if kind not in arity:
        raise ConfigError(
            f"{where}: unknown function {kind!r} (choices: {', '.join(sorted(arity))})"
        )
    parts = [p.strip() for p in body.split(",")] if body.strip() else []
    if len(parts) != arity[kind]:
        raise ConfigError(f"{where}: {kind} takes {arity[kind]} arguments, got {len(parts)}")
    try:
        args = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{where}: non-numeric argument in {text!r}") from None
    if not all(map(math.isfinite, args)):
        raise ConfigError(f"{where}: non-finite argument in {text!r}")
    return kind, args


def parse_function_spec(text: str, where: str) -> functools.partial:
    """The profile x -> values of a spatial function spec."""
    kind, args = _parse_call(text, where, _SPEC_ARITY)
    if kind in ("bump", "tanh_step") and args[3] <= 0:
        raise ConfigError(f"{where}: width must be positive")
    return functools.partial(_PROFILES[kind], *args)


def _parse_fuel_family(text: str, where: str):
    kind, args = _parse_call(text, where, _FUEL_ARITY)
    if kind == "constant":
        if not 0.0 <= args[0] <= 1.0:
            raise ConfigError(f"{where}: fuel level must lie in [0, 1]")
        return ConstantFuel(args[0])
    if args[2 if kind == "logistic_front" else 1] <= 0:
        raise ConfigError(f"{where}: width must be positive")
    if kind == "logistic_front":
        return LogisticFrontFuel(*args)
    if args[2] < 0:
        raise ConfigError(f"{where}: decay rate must be nonnegative")
    return GaussianDecayFuel(*args)


# ---------------------------------------------------------------------------
# config tokenizing


_SECTIONS = ("grid", "layers", "fuel", "run", "experiment")
_RUN_CHOICES = {"scheme": SCHEMES, "window_mode": WINDOW_MODES}


def _tokenize(text: str) -> dict:
    """Split config text into {section: {key: (value, line_no)}}."""
    sections: dict = {name: {} for name in _SECTIONS}
    current: str | None = None
    seen: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{name}] "
                    f"(choices: {', '.join(_SECTIONS)})"
                )
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if (current, key) in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} in [{current}] "
                f"(first set on line {seen[(current, key)]})"
            )
        seen[(current, key)] = lineno
        sections[current][key] = (value, lineno)
    return sections


class _Section:
    """One section's keys with typed take-or-default access; tracks leftovers."""

    def __init__(self, name: str, entries: dict, defaults_filled: list):
        self.name = name
        self.entries = dict(entries)
        self.defaults_filled = defaults_filled

    def _where(self, key: str, lineno: int | None = None) -> str:
        loc = f"line {lineno}: " if lineno else ""
        return f"{loc}[{self.name}] {key}"

    def take(self, key: str, default=None, required: bool = False):
        if key in self.entries:
            value, lineno = self.entries.pop(key)
            return value, lineno
        if required:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        self.defaults_filled.append(f"[{self.name}] {key} = {default}")
        return None, None

    def take_float(self, key: str, default=None, required=False, cast=float):
        value, lineno = self.take(key, default, required)
        if value is None:
            return default
        try:
            return cast(value)
        except ValueError:
            kind = "a number" if cast is float else "an integer"
            raise ConfigError(f"{self._where(key, lineno)}: not {kind}: {value!r}") from None

    def take_int(self, key: str, default=None, required=False) -> int | None:
        return self.take_float(key, default, required, cast=int)

    def take_choice(self, key: str, choices, default=None) -> str | None:
        value, lineno = self.take(key, default)
        if value is None:
            return default
        if value not in choices:
            raise ConfigError(
                f"{self._where(key, lineno)}: must be one of {', '.join(choices)}"
            )
        return value

    def take_spec(self, key: str, default: str) -> functools.partial:
        value, lineno = self.take(key, default)
        return parse_function_spec(default if value is None else value,
                                   self._where(key, lineno))

    def reject_leftovers(self):
        if self.entries:
            key, (_, lineno) = next(iter(self.entries.items()))
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{self.name}]")


# ---------------------------------------------------------------------------
# problem building


@dataclass
class ProblemConfig:
    """Fully validated configuration: problem data plus run/experiment settings."""

    grid: Grid
    n: int
    params: LayerParams
    fuel: PrescribedFuel
    fuel_mode: str
    phi: np.ndarray
    T: float
    solver: SolverConfig
    experiment: dict
    defaults_filled: list[str]
    text: str

    def problem(self) -> Problem:
        return Problem(self.grid, self.params, self.fuel, self.phi)

    def perturbation_spec(self) -> PerturbationSpec:
        """The perturb_* directions on the ladder 2^-j, j < [experiment] levels."""
        perturb = self.experiment["perturb"]
        if not perturb:
            raise ConfigError("[experiment] needs at least one perturb_* direction")
        levels = 2.0 ** -np.arange(self.experiment["levels"], dtype=float)
        return PerturbationSpec(perturb, levels)


def _check_sign(name: str, values: np.ndarray, positive: bool):
    low = values.min()
    if positive and low <= 0.0:
        raise ConfigError(f"{name} must be strictly positive on the grid "
                          f"(H1 positivity), min {low:.6g}")
    if low < 0.0:
        raise ConfigError(f"{name} must be nonnegative on the grid, min {low:.6g}")


def _check_lattice(T: float, step: float, where: str, what: str):
    """A ConfigError at `where` unless T is a whole number of steps of `step`."""
    try:
        time_lattice(T, step)
    except ValueError:
        raise ConfigError(
            f"{where}: T = {T} must be a whole number of steps of {what}") from None


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate config text into an admissible problem setup."""
    tokens = _tokenize(text)
    defaults: list[str] = []

    grid_sec = _Section("grid", tokens["grid"], defaults)
    x_min = grid_sec.take_float("x_min", required=True)
    x_max = grid_sec.take_float("x_max", required=True)
    m = grid_sec.take_int("m", required=True)
    grid_sec.reject_leftovers()
    try:
        grid = make_grid(x_min, x_max, m)
    except ValueError as err:
        raise ConfigError(f"[grid]: {err}") from None
    x = grid.x

    layers = _Section("layers", tokens["layers"], defaults)
    n = layers.take_int("n", required=True)
    if n < 2:
        raise ConfigError("[layers] n: need at least 2 layers")

    layer_defaults = {"a": "constant(1)", "b": "constant(0)", "c": "constant(0)",
                      "d": "constant(0)", "lam": "constant(1)", "K": "constant(0)",
                      "A": "constant(0)"}
    fields = {}
    for name, dflt in layer_defaults.items():
        rows = [layers.take_spec(f"{name}_{i}", dflt)(x) for i in range(1, n + 1)]
        fields[name] = np.stack(rows)
    q_rows = [layers.take_spec(f"q_{i}", "constant(0)")(x) for i in range(1, n)]
    qhat1 = layers.take_spec("qhat_1", "constant(0)")(x)
    qhat2 = layers.take_spec("qhat_2", "constant(0)")(x)
    u_e = layers.take_float("u_e", default=0.0)
    E = layers.take_float("E", default=1.0)
    layers.reject_leftovers()

    for i in range(n):
        _check_sign(f"a_{i + 1}", fields["a"][i], positive=True)
        _check_sign(f"lam_{i + 1}", fields["lam"][i], positive=True)
        for name in ("b", "c", "d", "K", "A"):
            _check_sign(f"{name}_{i + 1}", fields[name][i], positive=False)
    for i, row in enumerate(q_rows, start=1):
        _check_sign(f"q_{i}", row, positive=False)
    _check_sign("qhat_1", qhat1, positive=False)
    _check_sign("qhat_2", qhat2, positive=False)
    if not 0.0 <= u_e < math.inf:
        raise ConfigError(f"[layers] u_e must be nonnegative and finite, got {u_e}")
    try:
        check_activation(E)
    except ValueError as err:
        raise ConfigError(f"[layers] E: {err}") from None

    params = LayerParams(
        a=fields["a"], b=fields["b"], c=fields["c"],
        c_x=central_gradient(fields["c"], grid.dx),
        d=fields["d"], lam=fields["lam"], K=fields["K"], A=fields["A"],
        q=np.stack(q_rows), qhat1=qhat1, qhat2=qhat2, u_e=u_e, E=E,
    )

    fuel_sec = _Section("fuel", tokens["fuel"], defaults)
    fuel_mode = fuel_sec.take_choice("mode", ("prescribed", "coupled"), "prescribed")
    families = []
    for i in range(1, n + 1):
        value, lineno = fuel_sec.take(f"y_{i}", "constant(1)")
        families.append(_parse_fuel_family(value or "constant(1)",
                                           fuel_sec._where(f"y_{i}", lineno)))
    fuel_sec.reject_leftovers()
    fuel = PrescribedFuel(families)

    run = _Section("run", tokens["run"], defaults)
    T = run.take_float("T", required=True)
    if not 0.0 < T < math.inf:
        raise ConfigError(f"[run] T must be positive and finite, got {T}")
    phi_rows = [run.take_spec(f"phi_{i}", "constant(0)")(x) for i in range(1, n + 1)]
    phi = np.stack(phi_rows)
    # one key per SolverConfig field; a field without a default (dt) is required
    solver_kwargs = {}
    for f in dataclass_fields(SolverConfig):
        if f.name in _RUN_CHOICES:
            solver_kwargs[f.name] = run.take_choice(f.name, _RUN_CHOICES[f.name], f.default)
        elif f.default is MISSING:
            solver_kwargs[f.name] = run.take_float(f.name, required=True)
        else:
            solver_kwargs[f.name] = run.take_float(f.name, f.default, cast=type(f.default))
    run.reject_leftovers()
    try:
        solver = SolverConfig(**solver_kwargs)
    except ValueError as err:
        raise ConfigError(f"[run]: {err}") from None
    _check_lattice(T, solver.dt, "[run] dt", f"dt = {solver.dt}")

    exp = _Section("experiment", tokens["experiment"], defaults)
    experiment = {
        "oracle_integrator": exp.take_choice("oracle_integrator", INTEGRATORS,
                                             "implicit-trapezoid"),
        "oracle_dt": exp.take_float("oracle_dt", default=None),
        "oracle_newton_tol": exp.take_float("oracle_newton_tol", default=1e-10),
        "levels": exp.take_int("levels", default=9),
        "front_threshold": exp.take_float("front_threshold", default=None),
    }
    perturb: dict = {}
    for key in list(exp.entries):
        if not key.startswith("perturb_"):
            continue
        target = key[len("perturb_"):]
        if target == "u_e":
            perturb["u_e"] = exp.take_float(key)
            if not math.isfinite(perturb["u_e"]):
                raise ConfigError(f"[experiment] {key} must be finite, got {perturb['u_e']}")
            continue
        value, lineno = exp.entries.pop(key)
        where = f"line {lineno}: [experiment] {key}"
        mt = re.match(r"^(phi|fuel|a|b|c|d|lam|K|A|q|qhat)_(\d+)$", target)
        if not mt:
            raise ConfigError(f"{where}: unknown perturbation target {target!r}")
        base, idx = mt.group(1), int(mt.group(2))
        spec = parse_function_spec(value, where)
        if base == "qhat":
            if idx not in (1, 2):
                raise ConfigError(f"{where}: qhat index must be 1 or 2")
            perturb[f"qhat{idx}"] = spec(x)
            continue
        rows = n - 1 if base == "q" else n
        if not 1 <= idx <= rows:
            raise ConfigError(f"{where}: layer index {idx} out of range 1..{rows}")
        arr = perturb.setdefault(base, np.zeros((rows, grid.m)))
        arr[idx - 1] += spec(x)
    exp.reject_leftovers()
    experiment["perturb"] = perturb
    if experiment["levels"] < 2:
        raise ConfigError("[experiment] levels must be at least 2")
    h = experiment["oracle_dt"]
    if h is not None:
        if not 0.0 < h < math.inf:
            raise ConfigError(f"[experiment] oracle_dt must be positive and finite, got {h}")
        _check_lattice(T, 4.0 * h, "[experiment] oracle_dt",
                       f"4*oracle_dt = {4.0 * h}, the coarsest oracle rung")
    tol = experiment["oracle_newton_tol"]
    if not 0.0 < tol < math.inf:
        raise ConfigError(
            f"[experiment] oracle_newton_tol must be positive and finite, got {tol}")
    thr = experiment["front_threshold"]
    if thr is not None and not math.isfinite(thr):
        raise ConfigError(f"[experiment] front_threshold must be finite, got {thr}")

    return ProblemConfig(grid, n, params, fuel, fuel_mode, phi, T, solver,
                         experiment, defaults, text)


# ---------------------------------------------------------------------------
# trajectory serialization


# a render block is max(1, _RENDER_BLOCK // (m*cols)) whole snapshots; a write
# peaks at about 340 B per value of one block
_RENDER_BLOCK = 4096


def _write_snapshots(paths: list[str], header: list[str],
                     x: np.ndarray, tables: list[np.ndarray]) -> None:
    """Write each snapshot's CSV, rendering a block of whole snapshots at a time."""
    from .g17 import padded, records  # imported here: start-up does not compile it

    m, cols = x.size, sum(t.shape[1] for t in tables)
    per = max(1, _RENDER_BLOCK // (m * cols))
    head = (",".join(header) + "\n").encode()
    cells = padded([b"%.17g," % xi for xi in x.tolist()])  # the x column, once
    seps = np.full(cols, ord(","), dtype="<u8")
    seps[-1] = ord("\n")
    seps <<= np.uint64(56)
    for k0 in range(0, len(paths), per):
        snaps = min(per, len(paths) - k0)
        block = np.empty((snaps, m, cols))
        np.concatenate([t[k0 : k0 + snaps] for t in tables], axis=1,
                       out=block.transpose(0, 2, 1))
        recs = records(block.ravel()).reshape(snaps, m, cols, 4)
        recs[..., 3] |= seps
        rec = np.concatenate([np.broadcast_to(cells[:, None], (snaps, m, 1, 4)), recs], axis=2)
        for path, snap in zip(paths[k0 : k0 + per], rec):
            with open(path, "wb") as fh:
                fh.write(head)
                fh.write(snap.tobytes().translate(None, b"\0"))


def write_trajectory(traj: SolutionTrajectory, prefix, fuel_table=None) -> list[str]:
    """One snapshot CSV per stored time plus an index CSV; returns paths written."""
    prefix = Path(prefix)
    folder = os.path.dirname(prefix)
    n = traj.n if traj.times.size else 0
    header = ["x"] + [f"u_{i + 1}" for i in range(n)]
    tables = [traj.values]
    if fuel_table is not None:
        fuel_table = np.asarray(fuel_table, dtype=float)
        if fuel_table.shape != traj.values.shape:
            raise ValueError("fuel table must align with the trajectory values")
        header += [f"y_{i + 1}" for i in range(n)]
        tables.append(fuel_table)
    names = [f"{prefix.name}_snap_{k:05d}.csv" for k in range(traj.times.size)]
    paths = [os.path.join(folder, name) for name in names]
    if paths:
        _write_snapshots(paths, header, traj.grid.x, tables)

    index_path = os.path.join(folder, f"{prefix.name}_index.csv")
    norms = layer_l2(traj.values, traj.grid.dx)
    with open(index_path, "w") as fh:
        head = ["time", "filename"] + [f"norm_{i + 1}" for i in range(n)]
        fh.write(",".join(head) + "\n")
        for t, name, layer_norms in zip(traj.times.tolist(), names, norms.tolist()):
            fh.write(",".join([_fmt(t), name] + [_fmt(v) for v in layer_norms]) + "\n")
    return paths + [index_path]


# later snapshots are read a block of files, about _READ_BLOCK bytes, at a
# time; a block's separator mask and cell arrays take about 4 B per byte
_READ_BLOCK = 1 << 19


def _loadtxt_snapshot(path: str, header: list[str] | None) -> tuple[list[str], np.ndarray]:
    """A snapshot's header and columns by np.loadtxt.  A later snapshot (header
    given) must repeat `header`, and its grid column, the first one's, is not
    parsed."""
    with open(path) as fh:
        line = fh.readline().strip().split(",")
        if header is not None and line != header:
            raise ValueError(f"{path}: header {','.join(line)!r} differs from "
                             f"the first snapshot's {','.join(header)!r}")
        cols = np.loadtxt(fh, delimiter=",", ndmin=2, unpack=True,
                          usecols=range(1, len(line)) if header is not None else None)
    return line, cols


def _parse_files(data: np.ndarray, edges: list[int], head: bytes, m: int) -> dict:
    """The value columns, (m, cells per row - 1), of each file f =
    data[edges[f]:edges[f + 1]] whose text is head, then m rows of as many
    cells, each but the last ended by ',' and the last by '\n', and whose
    cells g17.parse reads, keyed by f."""
    from .g17 import parse  # imported here: start-up does not compile it

    fields = head.count(b",") + 1
    pattern = np.full((m + 1, fields), ord(","), dtype=np.uint8)
    pattern[:, -1] = ord("\n")
    seps = data == ord(",")
    seps |= data == ord("\n")
    seps = np.flatnonzero(seps)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    first = np.searchsorted(seps, lo)
    files = np.flatnonzero(np.searchsorted(seps, hi) - first == pattern.size).tolist()
    files = [f for f in files if data[lo[f] : lo[f] + len(head)].tobytes() == head]
    seps = seps[first[files, None] + np.arange(pattern.size)].reshape(len(files), m + 1, fields)
    good = (data[seps] == pattern).all(axis=(1, 2)) & (seps[:, -1, -1] == hi[files] - 1)
    # a value cell of the body runs from one separator to the next
    starts, ends = seps[good, 1:, :-1].ravel() + 1, seps[good, 1:, 1:].ravel()
    del seps
    values, foreign = parse(data, starts, ends)
    shape = (int(good.sum()), m, fields - 1)
    clean = ~foreign.reshape(shape).any(axis=(1, 2))
    return dict(zip(np.array(files, dtype=int)[good][clean].tolist(),
                    values.reshape(shape)[clean]))


def _later_snapshots(paths: list[str], header: list[str], m: int):
    """Yield each later snapshot's value columns, (len(header) - 1, m), in order.

    Files are read about _READ_BLOCK bytes at a time into one buffer and
    parsed together by _parse_files; a file it does not parse is read by
    np.loadtxt, which raises its errors."""
    from .g17 import PAD

    head = (",".join(header) + "\n").encode()
    buf = np.zeros(PAD + _READ_BLOCK, dtype=np.uint8)
    k = 0
    while k < len(paths):
        edges = [PAD]  # file f is buf[edges[f]:edges[f + 1]], empty if unreadable
        while k + len(edges) - 1 < len(paths):
            pos = edges[-1]
            try:
                with open(paths[k + len(edges) - 1], "rb") as fh:
                    size = os.fstat(fh.fileno()).st_size
                    if pos + size > buf.size:
                        if pos > PAD:
                            break
                        buf = np.zeros(PAD + size, dtype=np.uint8)
                    pos += fh.readinto(memoryview(buf)[pos : pos + size])
            except OSError:
                pass
            edges.append(pos)
        parsed = _parse_files(buf[: edges[-1]], edges, head, m)
        for f in range(len(edges) - 1):
            yield parsed[f].T if f in parsed else _loadtxt_snapshot(paths[k + f], header)[1]
        k += len(edges) - 1


def read_trajectory(prefix) -> tuple[SolutionTrajectory, np.ndarray | None]:
    """Load what write_trajectory wrote; returns (trajectory, fuel table or None)."""
    prefix = Path(prefix)
    folder = os.path.dirname(prefix)
    index_path = os.path.join(folder, f"{prefix.name}_index.csv")
    with open(index_path) as fh:
        rows = [ln.strip().split(",") for ln in fh if ln.strip()][1:]
    if not rows:
        raise ValueError(f"{index_path}: empty trajectory with no snapshots")
    paths = [os.path.join(folder, row[1]) for row in rows]
    # the first snapshot fixes the grid and the layout
    header, cols = _loadtxt_snapshot(paths[0], None)
    n = sum(1 for h in header if h.startswith("u_"))
    grid = make_grid(cols[0, 0], cols[0, -1], cols.shape[1])
    values = np.empty((len(rows), n, grid.m))
    fuel = np.empty_like(values) if any(h.startswith("y_") for h in header) else None
    later = _later_snapshots(paths[1:], header, grid.m)
    for k, cols in enumerate(itertools.chain([cols[1:]], later)):
        values[k] = cols[:n]
        if fuel is not None:
            fuel[k] = cols[n : 2 * n]
    times = np.array([float(row[0]) for row in rows])
    return SolutionTrajectory(times, values, grid), fuel


def write_report(report: HypothesisReport, path) -> str:
    path = Path(path)
    path.write_text(report.to_text())
    return str(path)


# ---------------------------------------------------------------------------
# front tracking


def front_threshold_default(traj: SolutionTrajectory, u_e: float) -> float:
    """u_e + half the initial excess over ambient (threshold-crossing front)."""
    sup0 = float(np.max(traj.values[0])) if traj.times.size else u_e
    return u_e + 0.5 * (sup0 - u_e)


def front_track(traj: SolutionTrajectory, u_e: float,
                threshold: float | None = None) -> tuple[float, np.ndarray]:
    """Leftmost crossing x per layer and time; NaN where nothing crosses."""
    thr = front_threshold_default(traj, u_e) if threshold is None else float(threshold)
    hits = traj.values >= thr
    return thr, np.where(hits.any(-1), traj.grid.x[hits.argmax(-1)], math.nan)


# ---------------------------------------------------------------------------
# manifests and reports


def _resolve_prefix(out_arg: str | None, config_path: str, subcommand: str) -> Path:
    stem = Path(config_path).stem or "run"
    prefix = Path(out_arg) if out_arg else Path(f"{stem}_{subcommand.replace('-', '_')}")
    outdir = os.environ.get("LAYERBURN_OUTDIR")
    if outdir and not prefix.is_absolute():
        prefix = Path(outdir) / prefix
    if prefix.parent and not prefix.parent.exists():
        prefix.parent.mkdir(parents=True, exist_ok=True)
    return prefix


def write_manifest(prefix: Path, subcommand: str, config_path: str,
                   config: ProblemConfig, outputs: list[str]) -> str:
    manifest = {
        "package": "layerburn",
        "version": __version__,
        "subcommand": subcommand,
        "config_file": str(config_path),
        "config_sha256": hashlib.sha256(config.text.encode()).hexdigest(),
        "config_echo": config.text,
        "defaults_filled": config.defaults_filled,
        "resolved_solver": asdict(config.solver),
        "T": config.T,
        "fuel_mode": config.fuel_mode,
        "experiment": {
            key: val for key, val in config.experiment.items() if key != "perturb"
        },
        "perturb_targets": sorted(config.experiment["perturb"]),
        "outputs": [os.path.basename(p) for p in outputs],
    }
    path = prefix.parent / f"{prefix.name}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return str(path)


def _summary_text(result: SolveResult, coupled: CoupledResult | None = None) -> str:
    """The run's summary; result is the (last) temperature solve, and a coupled
    run adds its pass count and the Picard sweeps, worst gap ratio and Picard
    tolerance of every pass."""
    lines = ["[run summary]"]
    lines.append(f"windows: {len(result.windows)}")
    lines.append(f"max_picard_iterations: {result.max_iterations}")
    lines.append(f"total_picard_iterations: {result.total_iterations}")
    lines.append(f"worst_gap_ratio: {_fmt(result.worst_ratio)}")
    for key in ("observed", "bound", "kappa", "mu", "beta"):
        lines.append(f"apriori_{key}: {_fmt(result.apriori[key])}")
    lines.append(f"apriori_ok: {str(result.apriori['ok']).lower()}")
    for key in ("kappa", "mu", "beta", "T_prime"):
        val = getattr(result.report, key)
        lines.append(f"audit_{key}: {'n/a' if val is None else _fmt(val)}")
    if coupled is not None:
        lines.append(f"outer_passes: {coupled.outer_iterations}")
        lines.append("pass_picard_iterations: "
                     + ",".join(str(n) for n in coupled.pass_iterations))
        lines.append("pass_worst_gap_ratio: "
                     + ",".join(_fmt(r) for r in coupled.pass_worst_ratios))
        lines.append("pass_picard_tol: "
                     + ",".join(_fmt(t) for t in coupled.pass_picard_tols))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(args, config: ProblemConfig, config_path: str) -> int:
    prefix = _resolve_prefix(args.out, config_path, "simulate")
    problem = config.problem()
    fuel_table = None
    coupled = None
    if config.fuel_mode == "coupled":
        coupled = solve_coupled(problem, config.T, config.solver)
        traj, result = coupled.trajectory, coupled.last_solve
        fuel_table = coupled.fuel.table
    else:
        result = solve_global(problem, config.T, config.solver)
        traj = result.trajectory
    outputs = write_trajectory(traj, prefix, fuel_table)
    summary_path = prefix.parent / f"{prefix.name}_summary.txt"
    summary_path.write_text(_summary_text(result, coupled))
    outputs.append(str(summary_path))
    outputs.append(write_manifest(prefix, "simulate", config_path, config, outputs))
    print(f"simulate: {traj.times.size} snapshots, "
          f"max picard iterations {result.max_iterations}, "
          f"sup norm {_fmt(traj.sup_norm())} -> {prefix}_*")
    return 0


def _cmd_check_hypotheses(args, config: ProblemConfig, config_path: str) -> int:
    prefix = _resolve_prefix(args.out, config_path, "check_hypotheses")
    report = audit_problem(config.problem(), config.T, theta=config.solver.theta,
                           scheme=config.solver.scheme)
    for key in ("kappa", "mu", "beta", "T_prime"):
        val = getattr(report, key)
        print(f"{key}: {'n/a' if val is None else _fmt(val)}")
    if report.ok:  # a contraction step below dt certifies no window: no report says pass
        window_steps(report.T_prime, 0.0, config.solver.dt)
    report_path = write_report(report, prefix.parent / f"{prefix.name}_hypotheses.txt")
    write_manifest(prefix, "check-hypotheses", config_path, config, [report_path])
    print(f"hypotheses: {'pass' if report.ok else 'FAIL'} -> {report_path}")
    return 0 if report.ok else 2


def _refine_in_time(values: np.ndarray) -> np.ndarray:
    """A trajectory on a lattice of step dt, carried to the nested dt/2 lattice:
    even nodes are the given rows, odd nodes the mean of their two neighbours.
    """
    out = np.empty((2 * values.shape[0] - 1,) + values.shape[1:])
    out[::2] = values
    out[1::2] = 0.5 * (values[:-1] + values[1:])
    return out


def _cmd_oracle_compare(args, config: ProblemConfig, config_path: str) -> int:
    h = config.experiment["oracle_dt"]
    if h is None:  # parse_config checked the ladder of a given oracle_dt
        h = config.solver.dt
        _check_lattice(config.T, 4.0 * h, "[run] dt", f"4*dt = {4.0 * h}, the "
                       "coarsest oracle rung when oracle_dt is not set")
    prefix = _resolve_prefix(args.out, config_path, "oracle_compare")
    problem = config.problem()
    ladder = [4.0 * h, 2.0 * h, h]
    gaps, floors = [], []
    guess = report = None
    for dt in ladder:
        mild_cfg = replace(config.solver, dt=dt)
        # the audit does not depend on dt, so the finer rungs reuse the first one's
        res = solve_global(problem, config.T, mild_cfg, report=report, guess=guess)
        report, mild = res.report, res.trajectory
        # the next, finer rung starts its Picard sweeps from this one
        guess = None if dt == h else _refine_in_time(mild.values)
        oracle_cfg = OracleConfig(
            integrator=config.experiment["oracle_integrator"], dt=dt,
            scheme=config.solver.scheme,
            newton_tol=config.experiment["oracle_newton_tol"],
        )
        reference = mol_solve(problem, config.T, oracle_cfg)
        gaps.append(relative_gap(mild, reference))
        # the Picard floor: the solve stops within picard_tol*(1 + S) of its
        # fixed point, S the reference's sup norm that relative_gap divides by
        sup = reference.sup_norm()
        floors.append(mild_cfg.picard_tol * (1.0 + sup) / max(sup, np.finfo(float).tiny))
        # free this rung's trajectories: the finer rung's solves then hold only
        # its guess, and the peak memory stays that of a cold ladder
        del res, mild, reference
    # a gap at or below its rung's floor is round-off, not discretisation error,
    # and has no order: its cell stays empty (so does a zero gap of zero data)
    orders = ["" if ga <= fa or gb <= fb else _fmt(refinement_orders([ga, gb])[0])
              for ga, gb, fa, fb in zip(gaps, gaps[1:], floors, floors[1:])]

    csv_path = prefix.parent / f"{prefix.name}_oracle.csv"
    with open(csv_path, "w") as fh:
        fh.write("dt,relative_gap,observed_order\n")
        for dt, gap, order in zip(ladder, gaps, [""] + orders):
            fh.write(f"{_fmt(dt)},{_fmt(gap)},{order}\n")
    write_manifest(prefix, "oracle-compare", config_path, config, [str(csv_path)])
    print(f"oracle-compare: finest relative gap {_fmt(gaps[-1])}, "
          f"orders {', '.join(o or 'n/a' for o in orders)} -> {csv_path}")
    return 0


def _cmd_dependence_study(args, config: ProblemConfig, config_path: str) -> int:
    spec = config.perturbation_spec()
    prefix = _resolve_prefix(args.out, config_path, "dependence_study")
    study = dependence_study(config.problem(), config.T, spec, config.solver)

    csv_path = prefix.parent / f"{prefix.name}_dependence.csv"
    with open(csv_path, "w") as fh:
        fh.write("level,s,delta,ratio,bound,within_bound,above_floor,picard_sweeps,"
                 "skipped\n")
        prev = None
        for j, lv in enumerate(study.levels):
            ratio = ""
            if lv.skipped is None and prev is not None and prev > 0:
                ratio = _fmt(lv.delta / prev)
            prev = lv.delta if lv.skipped is None else None
            fh.write(",".join([
                str(j), _fmt(lv.level),
                "" if lv.skipped else _fmt(lv.delta),
                ratio,
                "" if lv.skipped else _fmt(lv.bound),
                str(lv.within_bound).lower(),
                str(lv.above_floor).lower(),
                "" if lv.skipped else str(lv.sweeps),
                (lv.skipped or "").replace(",", ";"),
            ]) + "\n")
    write_manifest(prefix, "dependence-study", config_path, config, [str(csv_path)])
    n_ok = sum(1 for lv in study.levels if lv.skipped is None)
    print(f"dependence-study: {n_ok}/{len(study.levels)} levels solved, "
          f"decreasing={str(study.decreasing).lower()}, "
          f"within_bound={str(study.all_within_bound).lower()} -> {csv_path}")
    return 0


def _cmd_front_track(args, config: ProblemConfig, config_path: str) -> int:
    prefix = _resolve_prefix(args.out, config_path, "front_track")
    problem = config.problem()
    if config.fuel_mode == "coupled":
        traj = solve_coupled(problem, config.T, config.solver).trajectory
    else:
        traj = solve_global(problem, config.T, config.solver).trajectory
    thr, pos = front_track(traj, config.params.u_e,
                           config.experiment["front_threshold"])
    csv_path = prefix.parent / f"{prefix.name}_front.csv"
    with open(csv_path, "w") as fh:
        fh.write("time," + ",".join(f"front_{i + 1}" for i in range(traj.n)) + "\n")
        for k, t in enumerate(traj.times):
            fh.write(",".join([_fmt(t)] + [_fmt(v) for v in pos[k]]) + "\n")
    write_manifest(prefix, "front-track", config_path, config, [str(csv_path)])
    print(f"front-track: threshold {_fmt(thr)} -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_HANDLERS = {
    "simulate": _cmd_simulate,
    "check-hypotheses": _cmd_check_hypotheses,
    "oracle-compare": _cmd_oracle_compare,
    "dependence-study": _cmd_dependence_study,
    "front-track": _cmd_front_track,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="layerburn",
                     description="layered porous-medium combustion toolbox")
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("simulate", "solve the configured problem and write trajectory CSVs"),
        ("check-hypotheses", "run the admissibility audit and report constants"),
        ("oracle-compare", "compare the solver against the method-of-lines oracle"),
        ("dependence-study", "sweep perturbation levels and check the response bound"),
        ("front-track", "solve and tabulate per-layer front positions"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to a config file")
        sp.add_argument("--out", default=None,
                        help="output path prefix (default: derived from config name)")
    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        text = Path(args.config).read_text()
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 4
    try:
        config = parse_config(text)
        return _HANDLERS[args.command](args, config, args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except AuditError as err:
        print(f"audit failure:\n{err.report.to_text()}", file=sys.stderr)
        return 2
    except (SolverError, NewtonError, StabilityError, GrowthBoundError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        # bad input that surfaces as a ValueError rather than a ConfigError
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
