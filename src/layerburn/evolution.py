"""Discrete evolution operators for the homogeneous layer problems.

Each layer carries an independent one-dimensional drift-diffusion generator
L u = -alpha(x, t) u_xx + beta(x, t) u_x.  One step of the two-parameter
family U(t_to, t_from) is the theta-scheme

    (I + theta*dt*L_h) u_new = (I - (1-theta)*dt*L_h) u_old,

with L_h assembled once per step from coefficients frozen at the interval
midpoint.  Diffusion uses central second differences.  Advection is
Peclet-switched per node: central differences where |beta|*dx/alpha <= 2,
first-order upwinding elsewhere, which keeps the implicit matrix strictly
diagonally dominant (margin exactly 1) for every dt.  The truncated boundary
uses the conservative homogeneous-Neumann closure: one-sided diffusion rows
whose column sums vanish for constant alpha (the explicit reconstruction then
preserves the discrete mean) and no advection term at the two boundary nodes,
where the Neumann condition makes beta*u_x vanish anyway.  Constants are
exact steady states of the homogeneous flow in every mode.

The n layers are decoupled, so the step matrices of all layers are stacked
into one tridiagonal of size n*m: the first row of each layer has no
sub-diagonal entry and its last row no super-diagonal entry, so the seams
carry zeros.  Each step keeps its explicit bands as one contiguous (3, n*m)
array and its stacked implicit matrix factored once with LAPACK's
tridiagonal LU (dgttrf).  Every later application (Picard sweeps, power
iteration) is one explicit product over the raveled layers, made of three
band products on contiguous slices, and one dgttrs call; the adjoint reads
the same bands and reuses the same factors with trans="T".  A seam entry only
ever adds a zero product to a neighbouring layer's row, so each layer's
result is the per-layer product, up to the sign of an exact zero at a seam.

build_propagators assembles all steps of a time lattice: fuel samples (one
sample call per block), coefficients, stencils and bands are computed over
blocks of time steps at once, shape (steps, n, m), and only the dgttrf call
stays per step.  The arithmetic is elementwise, so each operator is bitwise
the one a single-step build_propagator gives.  Blocks hold about BLOCK_NODES
values per array.  generator_bands assembles L_h the same way for a stack of
fuel samples, which the method-of-lines oracle uses per block of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .grid import Grid
from .model import LayerParams, coefficient_fields

# Values per array in one batched block of time steps (40 steps at n*m = 802),
# used for assembly here and for source evaluation along a lattice.  Blocks
# keep their (steps, n, m) temporaries in L2: an unblocked pass over a long
# lattice measured slower, at m = 1024 even slower than a per-step loop.
BLOCK_NODES = 1 << 15


def _stencil(alpha: np.ndarray, beta: np.ndarray, dx: float, scheme: str):
    """Tridiagonals (sub, main, sup) of L_h for stacked layers, shape (..., n, m)."""
    sub = np.zeros_like(alpha)
    main = np.zeros_like(alpha)
    sup = np.zeros_like(alpha)
    inv2 = 1.0 / dx**2

    a = alpha[..., 1:-1]
    b = beta[..., 1:-1]
    main[..., 1:-1] = 2.0 * a * inv2
    sub[..., 1:-1] = -a * inv2
    sup[..., 1:-1] = -a * inv2

    if scheme == "central":
        use_central = np.ones_like(b, dtype=bool)
    elif scheme == "upwind":
        use_central = np.zeros_like(b, dtype=bool)
    elif scheme == "auto":
        use_central = np.abs(b) * dx <= 2.0 * a
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    half = b / (2.0 * dx)
    sub[..., 1:-1] += np.where(use_central, -half, np.where(b > 0, -b / dx, 0.0))
    main[..., 1:-1] += np.where(use_central, 0.0, np.abs(b) / dx)
    sup[..., 1:-1] += np.where(use_central, half, np.where(b < 0, b / dx, 0.0))

    main[..., 0] += alpha[..., 0] * inv2
    sup[..., 0] -= alpha[..., 0] * inv2
    main[..., -1] += alpha[..., -1] * inv2
    sub[..., -1] -= alpha[..., -1] * inv2
    return sub, main, sup


@dataclass
class Propagator:
    """One theta-scheme step of the homogeneous evolution on [t_from, t_to].

    Holds the explicit bands of I - (1-theta)*dt*L_h and the dgttrf factors
    of I + theta*dt*L_h, both for all layers stacked into one tridiagonal of
    size n*m.  A zero-length step (dt = 0) has the bands and factors of the
    identity, so it applies as the identity.
    """

    grid: Grid
    t_from: float
    t_to: float
    theta: float
    scheme: str
    # (3, n*m) rows sub/main/sup of the stacked I - (1-theta)*dt*L; layer i is
    # columns i*m to (i+1)*m, and the seam entries sub[i*m], sup[i*m - 1] are zero
    exp: np.ndarray
    lu: tuple  # dgttrf factors (dl, d, du, du2, ipiv) of the stacked I + theta*dt*L

    @property
    def n(self) -> int:
        return self.exp.shape[1] // self.grid.m

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        v = values.ravel()
        sub, main, sup = self.exp
        rhs = main * v
        rhs[:-1] += sup[:-1] * v[1:]
        rhs[1:] += sub[1:] * v[:-1]
        # dgttrs reports only illegal arguments, which the factor shapes rule out
        x, _ = dgttrs(*self.lu, rhs, overwrite_b=True)
        return x.reshape(values.shape)

    def apply_transpose_values(self, values: np.ndarray) -> np.ndarray:
        """Adjoint application, used by the operator-norm power iteration."""
        z = np.array(values, dtype=float)
        x, _ = dgttrs(*self.lu, z.ravel(), trans="T", overwrite_b=True)
        sub, main, sup = self.exp
        out = main * x
        out[:-1] += sub[1:] * x[1:]
        out[1:] += sup[:-1] * x[:-1]
        return out.reshape(z.shape)


def build_propagators(p: LayerParams, fuel, times, theta: float = 0.5,
                      scheme: str = "auto") -> list[Propagator]:
    """Step operators for every interval [times[k], times[k+1]] of a lattice.

    Assembly runs over blocks of steps_per_block steps; each step then gets its
    own dgttrf call, and its Propagator keeps views of the block's arrays.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    times = np.asarray(times, dtype=float)
    dts = np.diff(times)
    if np.any(dts < 0.0):
        raise ValueError("t_to must not precede t_from")
    grid = fuel.grid
    mids = 0.5 * (times[:-1] + times[1:])
    props: list[Propagator] = []
    nodes = p.n * grid.m
    block = steps_per_block(nodes)
    for a in range(0, dts.size, block):
        dt = dts[a : a + block, None, None]
        alpha, beta = coefficient_fields(p, fuel.sample(grid, mids[a : a + block]))
        sub, main, sup = _stencil(alpha, beta, grid.dx, scheme)

        w_imp = theta * dt
        d = 1.0 + w_imp * main
        dl = w_imp * sub
        du = w_imp * sup
        if scheme == "central":
            margin = d - np.abs(dl) - np.abs(du)
            if margin.min() <= 0.0:
                raise ValueError(
                    "forced-central implicit matrix lost diagonal dominance; "
                    "reduce dt or use scheme='auto'/'upwind'"
                )
        w_exp = (1.0 - theta) * dt
        exp = np.stack([-w_exp * sub, 1.0 - w_exp * main, -w_exp * sup], axis=1)
        exp = exp.reshape(dt.shape[0], 3, nodes)
        for j in range(dt.shape[0]):
            # sub[..., 0] and sup[..., -1] are zero, so the stacked bands do not couple layers
            *lu, info = dgttrf(dl[j].ravel()[1:], d[j].ravel(), du[j].ravel()[:-1],
                               overwrite_dl=True, overwrite_d=True, overwrite_du=True)
            if info != 0:
                # unreachable for a diagonally dominant matrix, so not a config error
                raise RuntimeError(f"dgttrf failed on the implicit step matrix (info {info})")
            props.append(Propagator(grid, float(times[a + j]), float(times[a + j + 1]),
                                    float(theta), scheme, exp[j], tuple(lu)))
    return props


def build_propagator(p: LayerParams, fuel, t_from: float, t_to: float,
                     theta: float = 0.5, scheme: str = "auto") -> Propagator:
    """Assemble the step operator for [t_from, t_to]."""
    return build_propagators(p, fuel, [t_from, t_to], theta, scheme)[0]


def steps_per_block(nodes: int) -> int:
    """Time steps per batched block for fields of `nodes` values per step."""
    return max(1, BLOCK_NODES // nodes)


@dataclass
class GriddedFuel:
    """Pairs a fuel spec with the grid it is sampled on.

    Solver internals pass this around so propagator construction does not need
    a separate grid argument; sample/envelope delegate to the wrapped spec.
    """

    spec: object
    grid: Grid

    @property
    def mode(self) -> str:
        return self.spec.mode

    @property
    def n(self) -> int:
        return self.spec.n

    def sample(self, grid: Grid, t) -> np.ndarray:
        return self.spec.sample(grid, t)

    def envelope(self, grid: Grid, t0: float, t1: float):
        return self.spec.envelope(grid, t0, t1)


def generator_bands(p: LayerParams, y: np.ndarray, dx: float,
                    scheme: str = "auto") -> np.ndarray:
    """Tridiagonals of L_h for fuel fields y of shape (..., n, m): (..., n, 3, m)."""
    alpha, beta = coefficient_fields(p, y)
    return np.stack(_stencil(alpha, beta, dx, scheme), axis=-2)


def generator_apply(tri: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply stacked per-layer tridiagonals (n, 3, m) to values (n, m)."""
    v = np.asarray(values, dtype=float)
    sub, main, sup = tri[:, 0], tri[:, 1], tri[:, 2]
    out = main * v
    out[:, :-1] += sup[:, :-1] * v[:, 1:]
    out[:, 1:] += sub[:, 1:] * v[:, :-1]
    return out
