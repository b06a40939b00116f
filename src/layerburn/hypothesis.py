"""Admissibility checks and the quantitative constants behind well-posedness.

Three families of structural conditions gate every solve:

  (H1) capacity and transport coefficients: a_i, lam_i in [k1, k2] with
       k1 > 0, b_i and c_i nonnegative and bounded, sampled derivatives up to
       order 2 finite;
  (H2) fuel: nonnegative, bounded by k3 <= 1, with finite sampled
       derivatives y_x, y_xx, y_t, y_tx, for every fuel spec;
  (H3) exchange data: d_i, q_i, K_i (and A_i) bounded and nonnegative, and the
       ambient exchange profiles qhat_1, qhat_2 decaying inside the boundary
       guard bands (square-integrability proxy on the truncated domain).

On top of the checks, this module computes the constants that drive the
contraction machinery: a Lipschitz bound kappa for the source on a ball of
radius rho, a source magnitude bound mu on that ball, a growth rate beta of
the one-step propagators, the certified contraction step T' and the
continuation step epsilon(t0).

kappa and mu are built from rigorous per-node fuel envelopes over the time
span rather than probe-time sups, so the bounds hold for every t in the span.
lipschitz_kappa takes the envelope once and returns kappa with
mu0 = sup ||f(t, 0)||; the caller forms mu = kappa*rho + mu0.  A continuation
radius beyond the float range is inf.
beta is a closed-form upper bound per probe step: the log-norm of each
layer's tridiagonal generator, turned into a step-norm bound by von Neumann's
theorem for the A-stable theta-step (Soederlind, BIT 46 (2006) 631-652).  It
equals the dense-SVD growth rate of the probed steps to about five digits;
growth certified per step composes to the e^{beta (t-t')} form of the
two-parameter growth estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import GriddedFuel, check_theta, generator_bands, repeats
from .grid import GUARD_BAND_TOL, Grid, guard_band_ratio, l2_norm, layer_l2
from .lapack import top_eigenvalue
from .model import LayerParams, Problem, capacity, central_gradient, g_prime_sup


H2_PROBES = 33  # fuel probe times of the H2 check, evenly spread over [0, T]
BETA_PROBES = 9  # beta is probed on BETA_PROBES steps of length T/512


class GrowthBoundError(RuntimeError):
    """No certificate can be formed: the theta-step growth bound does not
    exist (theta*omega*h >= 1), or rho, R, kappa or mu is not finite."""


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
    Y = fuel.sample(ts)
    k3 = float(Y.max())
    ymin = float(Y.min())
    bounds = {"k3": max(k3, 0.0), "y_min": ymin}

    if not np.all(np.isfinite(Y)):
        violations.append("fuel samples contain non-finite values")
    if ymin < -1e-12:
        violations.append(f"fuel takes negative values (min {ymin:.6g})")
    if k3 > 1.0 + 1e-12:
        violations.append(f"fuel exceeds 1 (max {k3:.6g})")

    if ts.size > 1:
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


def lipschitz_kappa(p: LayerParams, fuel: GriddedFuel, rho: float,
                    t_span: tuple[float, float]) -> tuple[float, float]:
    """Source bounds (kappa, mu0) on the radius-rho ball, valid on t_span.

    kappa is the Lipschitz bound, per layer
    sup|c_x|/den + sup|K b y/den|*(rho*||g'|| + ||g||) + sup|d y/den|*||g'||
    + 2*sum(adjacent sup|q|/den) + sup|qhat|/den, maximized over the rigorous
    fuel envelope and then over layers; it is monotone nondecreasing in rho.
    mu0 = sup_t ||f(t, 0)||, so mu = kappa*rho + mu0 bounds the source's
    magnitude on the ball.  The fuel envelope is taken once for both.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    ylo, yhi = fuel.envelope(float(t_span[0]), float(t_span[1]))
    den_lo, den_hi = capacity(p, ylo), capacity(p, yhi)
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
    dx = fuel.grid.dx
    f0_first = float(layer_l2(np.abs(p.qhat1 * p.u_e) / den_lo[0], dx))
    f0_last = float(layer_l2(np.abs(p.qhat2 * p.u_e) / den_lo[-1], dx))
    return float(max(kappas)), max(f0_first, f0_last)


def growth_beta(p: LayerParams, fuel: GriddedFuel, probe_times, h: float,
                theta: float, scheme: str = "auto"):
    """Growth rate bound of the theta-steps [t, t + h] at the probe times.

    Each step's generator L_h is frozen at the midpoint t + h/2, as in
    build_propagators, and probes whose fuel sample repeats the one before it
    bit for bit are dropped.  Per probe and layer, the log-norm
    omega = lambda_max(-(L_h + L_h^T)/2) bounds the numerical range of
    -h*L_h by Re z <= omega*h, so by von Neumann's theorem the step has
    ||U||_2 <= max(1, r(omega*h)), r(a) = (1 + (1-theta)a)/(1 - theta*a) =
    1 + a/(1 - theta*a), provided theta*omega*h < 1.  Bisection (LAPACK's
    dstebz, lapack.top_eigenvalue) locates the top eigenvalue of
    S = -(L_h + L_h^T)/2 to within tol = eps*||S||_1, and omega is that
    estimate plus tol, so it rounds up.  Returns
    (beta, omega): beta = max(0, max log r(omega*h)/h) and omega of shape
    (distinct probes, n).
    """
    if not h > 0:
        raise ValueError("probe step h must be positive")
    check_theta(theta)
    t = np.asarray(probe_times, dtype=float)
    ys = fuel.sample(0.5 * (t + (t + h)))
    ys = ys[~repeats(ys, None)]
    sub, main, sup = np.moveaxis(generator_bands(p, ys, fuel.grid.dx, scheme), -2, 0)
    off = -0.5 * (sup[..., :-1] + sub[..., 1:])
    col = np.abs(main)
    col[..., :-1] += np.abs(off)
    col[..., 1:] += np.abs(off)
    tols = np.finfo(float).eps * np.max(col, axis=-1)
    omega = np.array([[top_eigenvalue(-d, e, tol) + tol for d, e, tol in zip(dk, ek, tk)]
                      for dk, ek, tk in zip(main, off, tols)])
    a = np.maximum(omega, 0.0) * h
    if np.any(theta * a >= 1.0):
        k, i = np.unravel_index(int(np.argmax(omega)), omega.shape)
        raise GrowthBoundError(
            f"no theta-step growth bound: layer {i + 1} has log-norm omega = "
            f"{omega[k, i]:.6g}, so theta*omega*h = {theta * omega[k, i] * h:.6g} >= 1 "
            f"(theta = {theta:.6g}, h = {h:.6g})")
    return float(np.max(np.log1p(a / (1.0 - theta * a))) / h), omega


def contraction_step(kappa: float, beta: float, mu: float, rho: float, R: float,
                     T: float) -> float:
    """Certified contraction window 0.9*min{T, 1/(kappa e^{beta T}), (R/e^{beta T}-rho)/mu}."""
    if T <= 0:
        raise ValueError("T must be positive")
    if not all(map(math.isfinite, (rho, R, kappa, mu))):
        raise GrowthBoundError(f"no certificate: rho = {rho:.6g}, R = {R:.6g}, "
                               f"kappa = {kappa:.6g} and mu = {mu:.6g} must be finite")
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


def _radius(norm: float, exponent: float) -> float:
    """2*norm*e^exponent; inf where e^exponent overflows."""
    try:
        return 2.0 * norm * math.exp(exponent)
    except OverflowError:
        return math.inf


def continuation_radius(t0: float, phi_norm: float, beta: float) -> float:
    """R(t0) = 2*||phi||*e^{beta*(t0+1)}; inf where e^{beta*(t0+1)} overflows."""
    return _radius(phi_norm, beta * (t0 + 1.0))


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
    beta is growth_beta's log-norm bound on BETA_PROBES steps of h = T/512.
    A time-invariant fuel (its time_invariant property) gives the same
    operator at every time, so the bound holds at every time; a time-varying
    or tabulated fuel is bounded at the probe times only.  The notes say
    which, with omega per layer.
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

    phi_norm = l2_norm(problem.phi, problem.grid.dx)
    report.rho = max(1.0, 2.0 * phi_norm)
    h = T / 512.0
    probe_times = np.linspace(0.0, T - h, BETA_PROBES)
    report.beta, omega = growth_beta(problem.params, fuel, probe_times, h, theta, scheme)
    report.kappa, mu0 = lipschitz_kappa(problem.params, fuel, report.rho, (0.0, T))
    report.mu = report.kappa * report.rho + mu0
    report.R = _radius(report.rho, report.beta * T)  # inf: contraction_step refuses it
    report.T_prime = contraction_step(report.kappa, report.beta, report.mu,
                                      report.rho, report.R, T)
    report.notes.append(
        f"beta bounds {omega.shape[0]} distinct probe operator(s) of the "
        f"{BETA_PROBES} probe steps of h={h:.6g}")
    report.notes.append("log-norm omega per layer: "
                        + ", ".join(format(w, ".17g") for w in omega.max(axis=0)))
    if problem.fuel.time_invariant:
        report.notes.append("coverage: the fuel is time-invariant on the span, "
                            "so the bound holds at every time")
    else:
        report.notes.append("coverage: the fuel is tabulated or varies in time, "
                            "so the bound holds at the probe times only")
    return report
