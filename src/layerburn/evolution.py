"""Discrete evolution operators for the homogeneous layer problems.

Each layer carries an independent one-dimensional drift-diffusion generator
L u = (-lam u_xx + c u_x)/w with the heat capacity w = a + b*y.  One step of
the two-parameter family U(t_to, t_from) is the theta-scheme

    (I + theta*dt*L_h) u_new = (I - (1-theta)*dt*L_h) u_old,

with L_h = D_h / w: the fuel-free stencil D_h is built once per
build_propagators call and w once per step, from the fuel at the interval
midpoint.  Diffusion uses central second differences.  Advection is
Peclet-switched per node: central differences where |c|*dx <= 2*lam,
first-order upwinding elsewhere, which keeps the implicit matrix strictly
diagonally dominant (margin exactly 1) for every dt.  The truncated boundary
uses the conservative homogeneous-Neumann closure: one-sided diffusion rows
whose column sums vanish for constant lam/w (the explicit reconstruction
then preserves the discrete mean) and no advection term at the two boundary
nodes, where the Neumann condition makes c*u_x vanish anyway.  Constants are
exact steady states of the homogeneous flow in every mode.

Only the implicit matrix A = I + theta*dt*L_h is kept.  The explicit one is
B = I - (1-theta)*dt*L_h = (I - (1-theta)*A)/theta, so a step applies as
U v = v + (A^{-1} v - v)/theta, one tridiagonal solve and three elementwise
passes.  theta lies in [1/2, 1], the
A-stable range, where dividing by theta at most doubles the rounding of
A^{-1} v - v; a dt = 0 step has A = I and is exactly the identity.

The n layers are decoupled, so the matrices A of all layers are stacked into
one tridiagonal of size n*m whose seam entries (the first row's sub-diagonal
and the last row's super-diagonal of each layer) are zero.  Each step factors
it once and every later application is one LAPACK solve over the raveled
layers.  The factors are block diagonal, so each layer's result is the
per-layer solve.

The drift-diffusion generator is self-adjoint in an exponentially weighted
L^2, and on the grid the same holds for A: when every opposite pair of
off-diagonals A[i, i+1], A[i+1, i] of a layer is negative, A = D^{-1} S D
with D = diag(s), s_0 = 1 and s_{i+1}/s_i = sqrt(A[i, i+1]/A[i+1, i]), and
S symmetric tridiagonal with A's diagonal and off-diagonals
e_i = -sqrt(A[i, i+1]*A[i+1, i]).  S has A's eigenvalues, which are positive
as A is strictly diagonally dominant with a positive diagonal, so LAPACK's
dpttrf factors S as L D L^T, and an apply solves A x = v as
x = dpttrs(s*v)/s, at about half the cost of the general dgttrs.  D only
changes how the system is solved, not the step.  An operator keeps the
general tridiagonal LU (dgttrf, dgttrs) when some pair is not negative
(central differences at a cell Peclet number of exactly 2, or above it when
forced, no diffusion, or a dt = 0 step) or when s leaves the normal float
range (the integral of |c|/(2*lam) across a layer beyond about 700, s
spanning over 300 decades); the choice is read from each operator's bands.

build_propagators assembles all steps of a time lattice: D_h once, then
fuel samples, capacities and bands over blocks of time steps at once, shape
(steps, n, m), and LAPACK factors one step at a time.  A step's
operator depends only on its fuel sample and dt, so each step is keyed by
its run of bitwise-equal adjacent fuel samples and its dt bit pattern, and
the steps of a key share one Propagator, assembled once.  A
time-invariant fuel samples as one broadcast field, so its whole lattice is
one run and its keys are its dt patterns: a lattice dt*k, whose steps round
to a few distinct dt values, holds a handful of operators (8 for 500 steps
of 1e-3).  A table whose samples repeat, such as the coupled solver's
all-y0 first pass, shares the same way within each run; a time-dependent
fuel makes every step a run of its own.  The arithmetic is elementwise, so
each operator is bitwise the one a single-step build_propagator gives.
Blocks hold about grid.BLOCK_NODES values per array.
generator_bands assembles L_h the same way for a stack of fuel samples, which
the method-of-lines oracle uses per block of nodes and the audit's growth
bound per probe step.

Along a lattice of Propagators every solver runs the same two recursions:
evolve gives the homogeneous states U(t_k, t_0) v, into a given array if
asked, and duhamel_blocks the propagated-trapezoid sums
I_{k+1} = U_k [I_k + (dt/2) f_k] + (dt/2) f_{k+1} from a given I_0, one
block of steps at a time, asking a callback for each block's source as it
goes.  From I_0 = phi that is one Picard sweep, whose blocks the solver
stores over the rows of its old iterate; from I_0 = 0 it is the integral
term alone, which the dependence terms take as a whole array from duhamel.
source_along evaluates f along the lattice one block of nodes at a time, for
the dependence terms' sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, steps_per_block
from .lapack import dgttrf, dgttrs, dpttrf, dpttrs
from .model import LayerParams, capacity, source_f

# the normal float range, which the scales of a symmetrized step stay in
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
SCHEMES = ("auto", "central", "upwind")  # the advection stencils of _stencil


def _stencil(lam: np.ndarray, c: np.ndarray, dx: float, scheme: str):
    """Tridiagonals (sub, main, sup) of the fuel-free stencil D_h = w*L_h, each (n, m)."""
    sub = np.zeros_like(lam)
    main = np.zeros_like(lam)
    sup = np.zeros_like(lam)
    inv2 = 1.0 / dx**2

    lam_i = lam[..., 1:-1]
    c_i = c[..., 1:-1]
    main[..., 1:-1] = 2.0 * lam_i * inv2
    sub[..., 1:-1] = -lam_i * inv2
    sup[..., 1:-1] = -lam_i * inv2

    if scheme == "central":
        use_central = np.ones_like(c_i, dtype=bool)
    elif scheme == "upwind":
        use_central = np.zeros_like(c_i, dtype=bool)
    elif scheme == "auto":
        use_central = np.abs(c_i) * dx <= 2.0 * lam_i
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    half = c_i / (2.0 * dx)
    sub[..., 1:-1] += np.where(use_central, -half, np.where(c_i > 0, -c_i / dx, 0.0))
    main[..., 1:-1] += np.where(use_central, 0.0, np.abs(c_i) / dx)
    sup[..., 1:-1] += np.where(use_central, half, np.where(c_i < 0, c_i / dx, 0.0))

    main[..., 0] += lam[..., 0] * inv2
    sup[..., 0] -= lam[..., 0] * inv2
    main[..., -1] += lam[..., -1] * inv2
    sub[..., -1] -= lam[..., -1] * inv2
    return sub, main, sup


def check_theta(theta: float) -> None:
    """theta must lie in the A-stable range [1/2, 1] (NaN does not)."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")


@dataclass
class Propagator:
    """One theta-scheme step of the homogeneous evolution.

    Holds the factors of A = I + theta*dt*L_h for all layers stacked into one
    tridiagonal of size n*m, and applies the step as v + (A^{-1} v - v)/theta
    (module docstring).  With a scale s, lu is dpttrf's (d, e) of the
    symmetric S = D A D^{-1}, D = diag(s); without one it is dgttrf's
    (dl, d, du, du2, ipiv) of A.  No explicit band is kept.  The factors are
    not written after assembly, so the steps of one key (build_propagators)
    share one Propagator.
    """

    lu: tuple
    theta: float
    scale: np.ndarray | None = None

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        v = values.ravel()
        # the solvers report only illegal arguments, which the factor shapes rule out
        if self.scale is None:
            x, _ = dgttrs(*self.lu, v)
        else:
            x, _ = dpttrs(*self.lu, self.scale * v, overwrite_b=True)
            x /= self.scale
        x -= v
        x /= self.theta
        x += v
        return x.reshape(values.shape)


def _symmetrizable(sup: np.ndarray, s: np.ndarray) -> bool:
    """Whether the pairs whose upper entries are sup are all negative (a ratio
    that is not positive and finite has made s NaN, 0 or inf) and the scales s
    are normal floats."""
    return sup.max() < 0.0 and s.min() >= _TINY and s.max() <= _HUGE


def _factor(d: np.ndarray, dl: np.ndarray, du: np.ndarray,
            theta: float) -> list[Propagator]:
    """The Propagators of a block of heads from A's bands, each (heads, n, m).

    dl[..., 0] and du[..., -1] are zero.  A symmetrizable head is factored by
    dpttrf in place of its bands: e_i goes to dl[..., i+1], so each head's
    stacked e is its raveled dl without the first entry, zero at the seams as
    the stacked sub-diagonal was.  Any other head is factored by dgttrf from
    copies.
    """
    heads = d.shape[0]
    s = np.empty_like(d)
    sub, sup, flat = dl.reshape(-1)[1:], du.reshape(-1)[:-1], s.reshape(-1)
    dls, ds, dus = (dl.reshape(heads, -1)[:, 1:], d.reshape(heads, -1),
                    du.reshape(heads, -1)[:, :-1])
    scales = s.reshape(heads, -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # raveled pairs (du_i, dl_{i+1}); the pairs across a seam are 0/0
        np.divide(sup, sub, out=flat[1:])
        s[..., 0] = 1.0
        np.sqrt(flat, out=flat)
        np.cumprod(s, axis=-1, out=s)
        every = _symmetrizable(du[..., :-1], s)
        # dgttrf copies the bands, before e overwrites them
        general = {h: dgttrf(dls[h], ds[h], dus[h]) for h in range(heads)
                   if not (every or _symmetrizable(du[h, :, :-1], scales[h]))}
        # e_i = -sqrt(du_i*dl_{i+1}) over dl_{i+1}; the pairs across a seam give -0.0
        np.multiply(sub, sup, out=sub)
        np.sqrt(sub, out=sub)
        np.negative(sub, out=sub)
    ops = []
    for h in range(heads):
        if h in general:
            *lu, info = general[h]
        else:
            *lu, info = dpttrf(ds[h], dls[h], overwrite_d=True, overwrite_e=True)
        if info != 0:
            # unreachable: A is strictly diagonally dominant and S shares its
            # positive spectrum, so not a config error
            raise RuntimeError(f"LAPACK could not factor the step matrix (info {info})")
        ops.append(Propagator(tuple(lu), theta, None if h in general else scales[h]))
    return ops


def build_propagators(p: LayerParams, fuel, times, theta: float = 0.5,
                      scheme: str = "auto") -> list[Propagator]:
    """Step operators for every interval [times[k], times[k+1]] of a lattice.

    A step's key is its run of bitwise-equal adjacent fuel samples and its
    dt bit pattern.  Assembly runs over blocks of steps_per_block steps, and
    only the first step of each key is assembled and factored; the steps of
    a key share its Propagator, across blocks too.
    """
    check_theta(theta)
    times = np.asarray(times, dtype=float)
    dts = np.diff(times)
    if np.any(dts < 0.0):
        raise ValueError("t_to must not precede t_from")
    grid = fuel.grid
    mids = 0.5 * (times[:-1] + times[1:])
    stencil = _stencil(p.lam, p.c, grid.dx, scheme)
    ops: dict[tuple, Propagator] = {}
    props: list[Propagator] = []
    block = steps_per_block(p.n * grid.m)
    run, last_y = 0, None
    for a in range(0, dts.size, block):
        dt = dts[a : a + block]
        ys = fuel.sample(mids[a : a + block])
        runs = run + np.cumsum(~repeats(ys, last_y))
        run, last_y = int(runs[-1]), ys[-1]
        keys = list(zip(runs.tolist(), dt.view(np.uint64).tolist()))
        new: dict[tuple, int] = {}  # key -> the block step that builds it
        for j, key in enumerate(keys):
            if key not in ops and key not in new:
                new[key] = j
        if new:
            heads = list(new.values())
            # A = I + theta*dt*(D_h/w), divided first so that each band is
            # bitwise generator_bands' times theta*dt
            den = capacity(p, ys[heads])
            dl, d, du = (band / den for band in stencil)
            w_imp = theta * dt[heads, None, None]
            dl *= w_imp
            du *= w_imp
            d *= w_imp
            d += 1.0
            if scheme == "central" and (d - np.abs(dl) - np.abs(du)).min() <= 0.0:
                raise ValueError(
                    "forced-central implicit matrix lost diagonal dominance; "
                    "reduce dt or use scheme='auto'/'upwind'"
                )
            ops.update(zip(new, _factor(d, dl, du, theta)))
        props.extend(ops[key] for key in keys)
    return props


def build_propagator(p: LayerParams, fuel, t_from: float, t_to: float,
                     theta: float = 0.5, scheme: str = "auto") -> Propagator:
    """Assemble the step operator for [t_from, t_to]."""
    return build_propagators(p, fuel, [t_from, t_to], theta, scheme)[0]


def repeats(rows: np.ndarray, last) -> np.ndarray:
    """For each row of rows (k, ...), whether its bits equal the row before it.

    Row 0 is compared with last, the row that preceded the block (None for
    none).  Bit patterns are compared, so -0.0 and +0.0 count as different
    and only identical inputs repeat.
    """
    bits = np.ascontiguousarray(rows, dtype=float).reshape(len(rows), -1).view(np.uint64)
    same = np.empty(len(rows), dtype=bool)
    same[0] = last is not None and np.array_equal(
        bits[0], np.ascontiguousarray(last, dtype=float).reshape(-1).view(np.uint64))
    same[1:] = (bits[1:] == bits[:-1]).all(axis=1)
    return same


def evolve(props: list[Propagator], start: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Homogeneous states U(t_k, t_0) start at every lattice node, (K+1, n, m).

    out, when given, receives the states in place and is returned; start may
    be its row 0.
    """
    if out is None:
        out = np.empty((len(props) + 1,) + start.shape)
    out[0] = start
    for k, prop in enumerate(props):
        out[k + 1] = prop.apply_values(out[k])
    return out


def duhamel_blocks(props: list[Propagator], times: np.ndarray, source,
                   start: np.ndarray):
    """Yield (a, I[a+1 : b+1]) for blocks of steps [a, b), I the trapezoid sums.

    I_0 = start and I_{k+1} = U_k [I_k + (dt_k/2) f_k] + (dt_k/2) f_{k+1}.
    source(lo, hi) returns f at the nodes lo..hi-1.  It is called once per
    block, for nodes 0..b in the first and a+1..b in the others, when the
    generator resumes after the previous block; the block's f_b is carried
    as the next block's f_a.  A consumer can therefore store each block in
    place of the rows that source reads.  The terms (dt_k/2) f_k and
    (dt_k/2) f_{k+1} are formed for a block at once; the recursion runs one
    step at a time.
    """
    K = len(props)
    half = 0.5 * np.diff(times)[:, None, None]
    block = steps_per_block(start.size)
    acc = start
    f = source(0, min(block, K) + 1)
    for a in range(0, K, block):
        b = min(a + block, K)
        if a:
            f = np.concatenate((f[-1:], source(a + 1, b + 1)))
        left = half[a:b] * f[:-1]
        right = half[a:b] * f[1:]
        rows = np.empty_like(right)
        for j, prop in enumerate(props[a:b]):
            acc = rows[j] = prop.apply_values(acc + left[j]) + right[j]
        del left, right  # not held while the consumer and the next source call run
        yield a, rows


def duhamel(props: list[Propagator], times: np.ndarray, f: np.ndarray,
            start) -> np.ndarray:
    """U(t_k, t_0) start + int_{t_0}^{t_k} U(t_k, s) f(s) ds by trapezoids, (K+1, n, m).

    f is the source at the K+1 lattice nodes; duhamel_blocks runs the
    recursion.
    """
    out = np.empty_like(f)
    out[0] = start
    for a, rows in duhamel_blocks(props, times, lambda lo, hi: f[lo:hi], out[0]):
        out[a + 1 : a + 1 + len(rows)] = rows
    return out


def source_along(p: LayerParams, ys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """source_f at every lattice node from its fuel sample, one call per block."""
    f = np.empty_like(values)
    block = steps_per_block(values[0].size)
    for a in range(0, len(values), block):
        f[a : a + block] = source_f(p, ys[a : a + block], values[a : a + block])
    return f


@dataclass
class GriddedFuel:
    """A fuel spec bound to the grid it is sampled on.

    Solver internals pass this around, so neither propagator construction nor
    sampling takes a separate grid argument.
    """

    spec: object
    grid: Grid

    def sample(self, t) -> np.ndarray:
        return self.spec.sample(self.grid, t)

    def envelope(self, t0: float, t1: float):
        return self.spec.envelope(self.grid, t0, t1)


def generator_bands(p: LayerParams, y: np.ndarray, dx: float,
                    scheme: str = "auto") -> np.ndarray:
    """Tridiagonals of L_h = D_h / w for fuel fields y of shape (..., n, m): (..., n, 3, m)."""
    return np.stack(_stencil(p.lam, p.c, dx, scheme), axis=-2) / capacity(p, y)[..., None, :]


def generator_apply(tri: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply stacked per-layer tridiagonals (n, 3, m) to values (n, m)."""
    v = np.asarray(values, dtype=float)
    sub, main, sup = tri[:, 0], tri[:, 1], tri[:, 2]
    out = main * v
    out[:, :-1] += sup[:, :-1] * v[:, 1:]
    out[:, 1:] += sub[:, 1:] * v[:, :-1]
    return out
