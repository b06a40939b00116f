"""Admissibility checks and the quantitative constants behind well-posedness.

Three families of structural conditions gate every solve:

  (H1) capacity and transport coefficients: a_i, lam_i in [k1, k2] with
       k1 > 0, b_i and c_i nonnegative and bounded, sampled derivatives up to
       order 2 finite;
  (H2) fuel: nonnegative, bounded by k3 (and by 1 for prescribed families),
       with finite sampled derivatives y_x, y_xx, y_t, y_tx;
  (H3) exchange data: d_i, q_i, K_i (and A_i) bounded and nonnegative, and the
       ambient exchange profiles qhat_1, qhat_2 decaying inside the boundary
       guard bands (square-integrability proxy on the truncated domain).

On top of the checks, this module computes the constants that drive the
contraction machinery: a Lipschitz bound kappa for the source on a ball of
radius rho, a source magnitude bound mu on that ball, the exponential growth
rate beta of the one-step propagators (power iteration on U^T U), the
certified contraction step T' and the continuation step epsilon(t0).

kappa and mu are built from rigorous per-node fuel envelopes over the time
span rather than probe-time sups, so the bounds hold for every t in the span;
growth is certified per step, which composes to the sharper e^{beta (t-t')}
form of the two-parameter growth estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import GriddedFuel, build_propagator
from .grid import GUARD_BAND_TOL, Grid, guard_band_ratio, l2_norm, layer_l2
from .model import LayerParams, Problem, central_gradient, g_prime_sup


H2_PROBES = 33  # fuel probe times of the H2 check, evenly spread over [0, T]
# beta is probed on BETA_PROBES steps of length T/512; each step's power
# iteration stops at a move below POWER_TOL, or fails after POWER_ITERS.
BETA_PROBES = 9
POWER_ITERS = 30
POWER_TOL = 1e-6


class PowerIterationError(RuntimeError):
    """Operator-norm estimate failed to settle within the iteration cap."""


# ---------------------------------------------------------------------------
# structural checks


@dataclass
class CheckResult:
    name: str
    ok: bool
    bounds: dict
    violations: list[str] = field(default_factory=list)


def _finite_sups(arrays: dict[str, np.ndarray], dx: float, violations: list[str]) -> dict:
    sups = {}
    for name, arr in arrays.items():
        d1 = central_gradient(arr, dx)
        d2 = central_gradient(d1, dx)
        sups[f"sup|{name}|"] = float(np.max(np.abs(arr)))
        sups[f"sup|{name}_x|"] = float(np.max(np.abs(d1)))
        sups[f"sup|{name}_xx|"] = float(np.max(np.abs(d2)))
        if not np.all(np.isfinite(arr)):
            violations.append(f"{name} contains non-finite samples")
    return sups


def check_H1(p: LayerParams, grid: Grid) -> CheckResult:
    violations: list[str] = []
    sups = _finite_sups({"a": p.a, "b": p.b, "c": p.c, "lam": p.lam}, grid.dx, violations)

    k1 = float(min(p.a.min(), p.lam.min()))
    k2 = float(max(p.a.max(), p.lam.max(), p.b.max(), p.c.max()))
    if not (k1 > 0.0):
        for name, arr in (("a", p.a), ("lam", p.lam)):
            if arr.min() <= 0.0:
                i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
                violations.append(
                    f"{name} is not positive: min {arr.min():.6g} at layer {i + 1}, node {j}"
                )
    for name, arr in (("b", p.b), ("c", p.c)):
        if arr.min() < 0.0:
            i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
            violations.append(
                f"{name} is negative: min {arr.min():.6g} at layer {i + 1}, node {j}"
            )
    ok = not violations
    if ok and k2 <= k1:
        # all coefficients equal; widen minimally so 0 < k1 < k2 stays strict
        k2 = k1 * (1.0 + 1e-12)
    return CheckResult("H1", ok, {"k1": k1, "k2": k2, **sups}, violations)


def check_H2(fuel: GriddedFuel, T: float) -> CheckResult:
    violations: list[str] = []
    grid = fuel.grid
    ts = np.linspace(0.0, T, H2_PROBES) if T > 0 else np.array([0.0])
    Y = fuel.sample(grid, ts)
    k3 = float(Y.max())
    ymin = float(Y.min())
    bounds = {"k3": max(k3, 0.0), "y_min": ymin}

    if not np.all(np.isfinite(Y)):
        violations.append("fuel samples contain non-finite values")
    if ymin < -1e-12:
        violations.append(f"fuel takes negative values (min {ymin:.6g})")
    if k3 > 1.0 + 1e-12:
        violations.append(f"fuel exceeds 1 (max {k3:.6g})")

    if fuel.mode == "prescribed" and ts.size > 1:
        dt = ts[1] - ts[0]
        y_x = np.gradient(Y, grid.dx, axis=-1)
        y_xx = np.gradient(y_x, grid.dx, axis=-1)
        y_t = np.gradient(Y, dt, axis=0)
        y_tx = np.gradient(y_t, grid.dx, axis=-1)
        for name, arr in (("y_x", y_x), ("y_xx", y_xx), ("y_t", y_t), ("y_tx", y_tx)):
            bounds[f"sup|{name}|"] = float(np.max(np.abs(arr)))
            if not np.all(np.isfinite(arr)):
                violations.append(f"{name} probe is non-finite")
    return CheckResult("H2", not violations, bounds, violations)


def check_H3(p: LayerParams, grid: Grid) -> CheckResult:
    violations: list[str] = []
    bounds = {}
    for name, arr in (("d", p.d), ("q", p.q), ("K", p.K), ("A", p.A)):
        bounds[f"sup|{name}|"] = float(np.max(np.abs(arr))) if arr.size else 0.0
        if arr.size and not np.all(np.isfinite(arr)):
            violations.append(f"{name} contains non-finite samples")
        if arr.size and arr.min() < 0.0:
            violations.append(f"{name} is negative (min {arr.min():.6g})")
    for name, vec in (("qhat1", p.qhat1), ("qhat2", p.qhat2)):
        sup = float(np.max(np.abs(vec)))
        ratio = guard_band_ratio(vec)
        bounds[f"sup|{name}|"] = sup
        bounds[f"{name}_guard_ratio"] = ratio
        if not np.all(np.isfinite(vec)):
            violations.append(f"{name} contains non-finite samples")
        if vec.min() < 0.0:
            violations.append(f"{name} is negative (min {vec.min():.6g})")
        if ratio > GUARD_BAND_TOL:
            violations.append(
                f"{name} does not decay in the guard bands (ratio {ratio:.3e}); "
                "square-integrability proxy fails on the truncated domain"
            )
    return CheckResult("H3", not violations, bounds, violations)


# ---------------------------------------------------------------------------
# quantitative constants


def _envelopes(p: LayerParams, fuel: GriddedFuel, t_span: tuple[float, float]):
    ylo, yhi = fuel.envelope(fuel.grid, float(t_span[0]), float(t_span[1]))
    den_lo = p.a + p.b * ylo
    den_hi = p.a + p.b * yhi
    if min(den_lo.min(), den_hi.min()) <= 0.0:
        raise ValueError("a + b*y must stay positive over the span (admissibility)")
    return ylo, yhi, den_lo, den_hi


def lipschitz_kappa(p: LayerParams, fuel: GriddedFuel, rho: float,
                    t_span: tuple[float, float]) -> float:
    """Lipschitz bound for the source on the radius-rho ball, valid on t_span.

    Per layer: sup|c_x|/den + sup|K b y/den|*(rho*||g'|| + ||g||)
    + sup|d y/den|*||g'|| + 2*sum(adjacent sup|q|/den) + sup|qhat|/den,
    maximized over the rigorous fuel envelope; the result is the max over
    layers.  Monotone nondecreasing in rho.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    ylo, yhi, den_lo, den_hi = _envelopes(p, fuel, t_span)
    gp = g_prime_sup(p.E)
    const1 = rho * gp + 1.0  # Lipschitz factor for theta*g(theta) on the ball
    n = p.n

    # y -> y/(a+b*y) is monotone in y, so endpoint evaluation is exact
    frac_lo = ylo / den_lo
    frac_hi = yhi / den_hi
    frac_abs = np.maximum(np.abs(frac_lo), np.abs(frac_hi))

    kappas = []
    for i in range(n):
        gam = float(np.max(np.abs(p.c_x[i]) / den_lo[i]))
        dl = float(np.max(np.abs(p.K[i] * p.b[i]) * frac_abs[i]))
        sg = float(np.max(np.abs(p.d[i]) * frac_abs[i]))
        eps_sum = 0.0
        if i > 0:
            eps_sum += float(np.max(np.abs(p.q[i - 1]) / den_lo[i]))
        if i < n - 1:
            eps_sum += float(np.max(np.abs(p.q[i]) / den_lo[i]))
        om = 0.0
        if i == 0:
            om = float(np.max(np.abs(p.qhat1) / den_lo[i]))
        if i == n - 1:
            om += float(np.max(np.abs(p.qhat2) / den_lo[i]))
        kappas.append(gam + dl * const1 + sg * gp + 2.0 * eps_sum + om)
    return float(max(kappas))


def bound_mu(p: LayerParams, fuel: GriddedFuel, rho: float,
             t_span: tuple[float, float]) -> float:
    """Source magnitude bound on the radius-rho ball: kappa*rho + sup||f(t, 0)||."""
    kap = lipschitz_kappa(p, fuel, rho, t_span)
    _, _, den_lo, _ = _envelopes(p, fuel, t_span)
    dx = fuel.grid.dx
    f0_first = float(layer_l2(np.abs(p.qhat1 * p.u_e) / den_lo[0], dx))
    f0_last = float(layer_l2(np.abs(p.qhat2 * p.u_e) / den_lo[-1], dx))
    return kap * rho + max(f0_first, f0_last)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row, with the BLAS dot that np.linalg.norm uses on one row."""
    return np.sqrt((x[:, None, :] @ x[:, :, None]).ravel())


def _layer_operator_norms(prop, iters: int, tol: float) -> np.ndarray:
    """Power-iteration estimate of each layer's largest singular value.

    All layers iterate together through the stacked apply and its adjoint;
    each layer has its own start vector and stopping test, and a settled
    layer keeps its estimate while the others go on.  Each starts from the
    constant vector, which the conservative stencil preserves exactly, so the
    first estimate ||U v|| is about 1.  A layer stops as soon as its estimate
    moves by at most tol (relative, once above 1) from one iteration to the
    next.  That bounds the step between iterates, not the distance to the
    top singular value: the estimate creeps up by less than tol per iteration
    and stops far below it.  Through growth_beta this gives beta 6.8e-3 on
    the ignition fixture against 0.90 from a dense SVD (ROADMAP Baseline;
    the estimator is the subject of the ROADMAP item "Make the certificate
    honest").
    """
    n, m = prop.n, prop.grid.m
    v = np.full((n, m), 1.0 / math.sqrt(m))
    est_prev = np.full(n, math.inf)
    norms = np.zeros(n)
    unsettled = np.ones(n, dtype=bool)
    for _ in range(iters):
        w = prop.apply_values(v)
        est = _row_norms(w)
        z = prop.apply_transpose_values(w)
        nz = _row_norms(z)
        moving = unsettled & (nz != 0.0)  # a vanishing adjoint image leaves norm 0
        settled = moving & (np.abs(est - est_prev) <= tol * np.maximum(1.0, est))
        norms[settled] = est[settled]
        unsettled = moving & ~settled
        if not unsettled.any():
            return norms
        v[unsettled] = z[unsettled] / nz[unsettled, None]
        est_prev = est
    raise PowerIterationError(
        f"operator-norm power iteration did not settle in {iters} iterations"
    )


def growth_beta(factory, probe_times, dt: float, *, power_iters: int = 30,
                power_tol: float = 1e-8) -> float:
    """Exponential growth rate estimate from one-step operator norms.

    beta = max over probe steps and layers of ln||U_step||_2 / dt, floored at
    0.  `factory(t0, t1)` must build the step propagator.
    """
    if dt <= 0:
        raise ValueError("probe step dt must be positive")
    worst = 0.0
    for t in probe_times:
        prop = factory(float(t), float(t) + dt)
        for nrm in _layer_operator_norms(prop, power_iters, power_tol):
            if nrm > 0.0:
                worst = max(worst, math.log(nrm) / dt)
    return max(0.0, worst)


def contraction_step(kappa: float, beta: float, mu: float, rho: float, R: float,
                     T: float) -> float:
    """Certified contraction window 0.9*min{T, 1/(kappa e^{beta T}), (R/e^{beta T}-rho)/mu}."""
    if T <= 0:
        raise ValueError("T must be positive")
    if kappa < 0 or mu < 0 or rho < 0 or beta < 0:
        raise ValueError("constants must be nonnegative")
    grow = math.exp(beta * T)
    if R <= rho * grow:
        raise ValueError(f"need R > rho*e^(beta*T) = {rho * grow:.6g}, got R = {R:.6g}")
    cands = [T]
    if kappa > 0:
        cands.append(1.0 / (kappa * grow))
    if mu > 0:
        cands.append((R / grow - rho) / mu)
    return 0.9 * min(cands)


def continuation_radius(t0: float, phi_norm: float, beta: float) -> float:
    return 2.0 * phi_norm * math.exp(beta * (t0 + 1.0))


def continuation_epsilon(t0: float, phi_norm: float, kappa: float, mu: float,
                         beta: float) -> float:
    """Continuation window min{1, ||phi|| / (kappa*R(t0) + mu)}.

    R(t0) = 2*||phi||*e^{beta*(t0+1)}; a vanishing denominator with vanishing
    state is the persisting-zero-solution case and returns 1.  By construction
    epsilon*kappa*e^{beta*(t0+1)} <= 1/2, so the window certifies contraction.
    """
    if phi_norm < 0 or kappa < 0 or mu < 0:
        raise ValueError("norms and constants must be nonnegative")
    den = kappa * continuation_radius(t0, phi_norm, beta) + mu
    if den == 0.0:
        return 1.0
    return min(1.0, phi_norm / den)


# ---------------------------------------------------------------------------
# combined audit


@dataclass
class HypothesisReport:
    h1: CheckResult
    h2: CheckResult
    h3: CheckResult
    t_span: tuple[float, float]
    kappa: float | None = None
    mu: float | None = None
    beta: float | None = None
    rho: float | None = None
    R: float | None = None
    T_prime: float | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.h1.ok and self.h2.ok and self.h3.ok

    def to_text(self) -> str:
        lines = []
        for frag in (self.h1, self.h2, self.h3):
            lines.append(f"[{frag.name}]")
            lines.append(f"pass: {str(frag.ok).lower()}")
            for key, val in frag.bounds.items():
                lines.append(f"{key}: {val:.17g}")
            for v in frag.violations:
                lines.append(f"violation: {v}")
            lines.append("")
        lines.append("[constants]")
        lines.append(f"pass: {str(self.ok).lower()}")
        lines.append(f"t_span: [{self.t_span[0]:.17g}, {self.t_span[1]:.17g}]")
        for key in ("kappa", "mu", "beta", "rho", "R", "T_prime"):
            val = getattr(self, key)
            lines.append(f"{key}: {'n/a' if val is None else format(val, '.17g')}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def audit_problem(problem: Problem, T: float, *, theta: float = 0.5,
                  scheme: str = "auto") -> HypothesisReport:
    """Run (H1)-(H3) and, when they pass, compute the contraction constants.

    kappa and mu are taken on the ball of radius rho = max(1, 2*||phi||).
    beta comes from power iteration on BETA_PROBES one-step operators; a
    layer stops once its norm estimate moves by less than POWER_TOL (relative
    above 1) in one iteration.  That test does not bound the error in beta:
    the estimate creeps up by less than POWER_TOL per iteration and stops far
    below the top singular value.  On the ignition fixture the audited beta
    is 6.8e-3 against a true 0.90 from a dense SVD (ROADMAP Baseline); the
    fix is the ROADMAP item "Make the certificate honest".
    """
    if T <= 0:
        raise ValueError("T must be positive")
    fuel = GriddedFuel(problem.fuel, problem.grid)
    h1 = check_H1(problem.params, problem.grid)
    h2 = check_H2(fuel, T)
    h3 = check_H3(problem.params, problem.grid)
    report = HypothesisReport(h1, h2, h3, (0.0, float(T)))
    report.notes.append(
        "kappa/mu sup-norms use rigorous per-node fuel envelopes over the span"
    )
    report.notes.append(
        "growth is certified per step and composes to the e^{beta*(t-s)} bound"
    )
    if not report.ok:
        return report

    phi_norm = l2_norm(problem.phi)
    report.rho = max(1.0, 2.0 * phi_norm)
    # The power-iteration creep toward the top singular value has amplitude
    # O(dt), so a fine probe step lets the estimate settle within the cap.
    dt_probe = T / 512.0
    probe_times = np.linspace(0.0, T - dt_probe, BETA_PROBES)

    def factory(t0, t1):
        return build_propagator(problem.params, fuel, t0, t1, theta, scheme)

    report.beta = growth_beta(factory, probe_times, dt_probe,
                              power_iters=POWER_ITERS, power_tol=POWER_TOL)
    report.kappa = lipschitz_kappa(problem.params, fuel, report.rho, (0.0, T))
    report.mu = bound_mu(problem.params, fuel, report.rho, (0.0, T))
    report.R = 2.0 * report.rho * math.exp(report.beta * T)
    report.T_prime = contraction_step(report.kappa, report.beta, report.mu,
                                      report.rho, report.R, T)
    report.notes.append(f"beta probed with {BETA_PROBES} steps of dt={dt_probe:.6g}")
    return report
