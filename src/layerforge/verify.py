"""Quantitative verification harness.

Order claims carry unknowable constants, so every check here fits its
constant at the coarsest parameter (inflated 5%) and then validates the
inequality or order at the finer ones.  Reports record the ladder, the
fitted constants, and the thresholds used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corrections import CorrectionTerm
from .expansion import build_expansion, build_perturbed
from .grids import graded_x_grid
from .kink import KinkProfile
from .locator import LayerLocation
from .problem import ProblemSpec
from . import solver as solver_mod

#: shared epsilon ladder for comparable order fits
EPS_LADDER = tuple(2.0 ** -k for k in range(4, 11))

#: perturbation sizes for the jump-functional sweeps
P_SWEEP = (-1e-2, -3e-3, -1e-3, -3e-4, -1e-4, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2)


class AllZeros(ValueError):
    """A decay fit received an identically vanishing tail."""


@dataclass(frozen=True)
class SweepReport:
    name: str
    parameter: str
    values: tuple
    measured: tuple
    passed: bool
    slope: float | None = None
    intercept: float | None = None
    threshold: float | None = None
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = ""
        if self.slope is not None:
            extra = f" slope={self.slope:.4g}"
        if self.threshold is not None:
            extra += f" threshold={self.threshold:.4g}"
        return f"[{status}] {self.name}{extra}"


def loglog_fit(xs, ys):
    """(slope, intercept) of a least-squares log-log fit, >= 4 points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 4:
        raise ValueError("log-log fits need at least 4 points")
    coeff = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(coeff[0]), float(coeff[1])


# ---------------------------------------------------------------------------
# Residual order


def residual_sweep(spec: ProblemSpec, loc: LayerLocation, kink: KinkProfile,
                   eps_ladder=EPS_LADDER, n_points: int = 2000,
                   min_slope: float = 2.7) -> SweepReport:
    """Fitted order of the maximal expansion defect across the ladder."""
    def worst(eps):
        e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kink)
        xs = graded_x_grid(loc.t0, eps, n_points)
        return float(np.max(np.abs(e.residual(xs))))

    measured = [worst(eps) for eps in eps_ladder]
    slope, intercept = loglog_fit(eps_ladder, measured)
    return SweepReport(name=f"residual-order[{spec.name}]", parameter="eps",
                       values=tuple(eps_ladder), measured=tuple(measured),
                       slope=slope, intercept=intercept,
                       threshold=min_slope, passed=bool(slope >= min_slope),
                       details={"n_points": n_points})


# ---------------------------------------------------------------------------
# Jump-functional sweeps


def phi_sweep(spec: ProblemSpec, loc: LayerLocation, kink: KinkProfile,
              eps: float = 1e-2, p_values=P_SWEEP,
              slope_rtol: float = 0.05) -> SweepReport:
    """Linearity of the derivative-jump functional in the shift parameter.

    The regression slope is compared against eps * C_I / chi(0); the
    intercept must be third-order small.
    """
    def one(p):
        e = build_expansion(spec, p=p, eps=eps, loc=loc, kink=kink)
        return e.phi_u_as()

    phis = [one(p) for p in p_values]
    coeff = np.polyfit(np.asarray(p_values), np.asarray(phis), 1)
    chi0 = float(kink.slope(-(loc.t1 + eps * loc.t2)))
    target = eps * loc.C_I / chi0
    rel = abs(coeff[0] / target - 1.0)
    passed = bool(rel <= slope_rtol)
    return SweepReport(name=f"phi-linearity[{spec.name}]", parameter="p",
                       values=tuple(p_values), measured=tuple(phis),
                       slope=float(coeff[0]), intercept=float(coeff[1]),
                       threshold=target, passed=passed,
                       details={"eps": eps, "rel_slope_error": float(rel),
                                "chi0": chi0})


def phi_intercept_check(spec: ProblemSpec, loc: LayerLocation,
                        kink: KinkProfile, eps_ladder=EPS_LADDER,
                        p_values=P_SWEEP) -> SweepReport:
    """Regression intercepts bounded by a fitted third-order envelope."""
    intercepts = []
    for eps in eps_ladder:
        phis = [build_expansion(spec, p=p, eps=eps, loc=loc,
                                kink=kink).phi_u_as() for p in p_values]
        coeff = np.polyfit(np.asarray(p_values), np.asarray(phis), 1)
        intercepts.append(abs(float(coeff[1])))
    K = 1.05 * intercepts[0] / eps_ladder[0] ** 3
    # absolute floor guards problems whose intercept is pure roundoff
    ok = [ic <= K * eps ** 3 + 1e-12 for ic, eps in zip(intercepts, eps_ladder)]
    return SweepReport(name=f"phi-intercept[{spec.name}]", parameter="eps",
                       values=tuple(eps_ladder), measured=tuple(intercepts),
                       threshold=K, passed=bool(all(ok)),
                       details={"fitted_at": eps_ladder[0], "K": float(K)})


def phi_sign_inequality(spec: ProblemSpec, loc: LayerLocation,
                        kink: KinkProfile, eps_ladder=EPS_LADDER,
                        p_values=P_SWEEP, with_perturbation: bool = False,
                        hhat_rule=lambda eps: np.sqrt(eps)) -> SweepReport:
    """Signed lower bound on the jump functional across the ladder.

    The first-order constant comes from the construction itself (half the
    area slope over the largest profile weight); the third-order constant is
    fitted at the coarsest epsilon and validated below it.  When
    `with_perturbation` is set the bound also subtracts the fitted multiple
    of |p'| with p' = eps * p.
    """
    chi_max = float(np.max(kink.chi_table))
    C1 = 0.5 * loc.C_I / chi_max
    C3 = 0.0

    def signed_phi(eps, p):
        e = build_expansion(spec, p=p, eps=eps, loc=loc, kink=kink)
        if not with_perturbation:
            return np.sign(p) * e.phi_u_as(), 0.0
        pprime = eps * p
        pe = build_perturbed(e, pprime=pprime, hhat=float(hhat_rule(eps)))
        return np.sign(p) * pe.phi_beta(), abs(pe.vstar.phi_value)

    rows = {}
    for eps in eps_ladder:
        rows[eps] = [signed_phi(eps, p) for p in p_values]
        if with_perturbation:
            C3 = max(C3, 1.05 * max(r[1] for r in rows[eps]))

    eps_fit = eps_ladder[0]
    deficits = [C1 * eps_fit * abs(p) - C3 * eps_fit * abs(p) - sphi
                for (sphi, _), p in zip(rows[eps_fit], p_values)]
    C2 = 1.05 * max(max(deficits) / eps_fit ** 3, 0.0) + 1e-9

    per_eps_ok = {}
    for eps in eps_ladder:
        bound = [C1 * eps * abs(p) - C2 * eps ** 3 - C3 * eps * abs(p)
                 for p in p_values]
        per_eps_ok[eps] = bool(all(sphi >= b - 1e-14 for (sphi, _), b
                                   in zip(rows[eps], bound)))
    eps_star = None
    for eps in sorted(eps_ladder, reverse=True):
        if all(per_eps_ok[e2] for e2 in eps_ladder if e2 <= eps):
            eps_star = eps
            break
    name = "phi-sign-perturbed" if with_perturbation else "phi-sign"
    measured = tuple(min(s for s, _ in rows[eps]) for eps in eps_ladder)
    return SweepReport(name=f"{name}[{spec.name}]", parameter="eps",
                       values=tuple(eps_ladder), measured=measured,
                       passed=bool(all(per_eps_ok.values())),
                       details={"C1": C1, "C2": float(C2), "C3": float(C3),
                                "eps_star_empirical": eps_star})


# ---------------------------------------------------------------------------
# Operator-sign margin of the perturbed expansion


def fbeta_check(spec: ProblemSpec, loc: LayerLocation, kink: KinkProfile,
                eps_values=(1e-2, 5e-3, 2e-3, 1e-3), p: float = 0.005,
                pprime_rule=lambda eps: 0.01 * eps,
                hhat_rule=lambda eps: np.sqrt(eps),
                n_points: int = 1000) -> SweepReport:
    """Pointwise signed lower bound on the centered operator defect.

    The slack constant is fitted at the largest epsilon (where the defect
    terms are biggest) and validated at every smaller one.
    """
    margins = []
    gamma_sq = loc.gamma ** 2
    C4 = None
    for eps in eps_values:
        e = build_expansion(spec, p=p, eps=eps, loc=loc, kink=kink)
        pprime = float(pprime_rule(eps))
        pe = build_perturbed(e, pprime=pprime, hhat=float(hhat_rule(eps)))
        xs = graded_x_grid(loc.t0, eps, n_points)
        lhs = np.sign(pprime) * pe.f_beta_centered(xs)
        base = 0.5 * pe.C0 * abs(pprime) * gamma_sq
        scale = eps ** 3 + eps * pe.hhat ** 2 + pe.hhat ** 4
        if C4 is None:
            C4 = 1.05 * max(float(np.max(base - lhs)) / scale, 0.0) + 1e-12
        margin = float(np.min(lhs - (base - C4 * scale)))
        margins.append(margin)
    passed = bool(all(m >= 0.0 for m in margins))
    return SweepReport(name=f"fbeta-margin[{spec.name}]", parameter="eps",
                       values=tuple(eps_values), measured=tuple(margins),
                       passed=passed,
                       details={"C4": float(C4), "p": p,
                                "fitted_at": eps_values[0]})


# ---------------------------------------------------------------------------
# Decay and monotonicity


def decay_fit(xi: np.ndarray, values: np.ndarray,
              window: tuple | None = None) -> float:
    """Exponential decay rate from a log-linear tail fit.

    Fits log |value| against |xi| on the window (defaults to [Xi/2, 0.9 Xi])
    and returns the negated slope.  The fit is resampled uniformly in |xi|
    so graded tables do not overweight the near end of the window.  Raises
    AllZeros when the window holds no usable magnitudes.
    """
    xi = np.asarray(xi, dtype=float)
    values = np.asarray(values, dtype=float)
    a_xi = np.abs(xi)
    hi = float(a_xi.max())
    if window is None:
        window = (hi / 2.0, 0.9 * hi)
    mask = (a_xi >= window[0]) & (a_xi <= window[1]) & (np.abs(values) > 1e-280)
    if mask.sum() < 4:
        raise AllZeros("tail window has no usable values to fit")
    order = np.argsort(a_xi[mask])
    s = a_xi[mask][order]
    logv = np.log(np.abs(values[mask][order]))
    s_u = np.linspace(s[0], s[-1], 200)
    logv_u = np.interp(s_u, s, logv)
    slope, _ = np.polyfit(s_u, logv_u, 1)
    return float(-slope)


def term_decay_rate(term: CorrectionTerm, window: tuple | None = None) -> float:
    """Conservative (slower) decay rate over the two branches of a term."""
    rates = []
    for xi, val in ((term.xi_neg, term.val_neg), (term.xi_pos, term.val_pos)):
        rates.append(decay_fit(xi, val, window))
    return min(rates)


def monotonicity_check(spec: ProblemSpec, loc: LayerLocation,
                       kink: KinkProfile, eps: float, p: float,
                       pprime: float, hhat: float,
                       n_points: int = 1000) -> SweepReport:
    """Ordering of the oppositely-signed perturbed expansions."""
    up = build_perturbed(build_expansion(spec, p=p, eps=eps, loc=loc,
                                         kink=kink), pprime, hhat)
    dn = build_perturbed(build_expansion(spec, p=-p, eps=eps, loc=loc,
                                         kink=kink), -pprime, hhat)
    xs = graded_x_grid(loc.t0, eps, n_points)
    gap = np.atleast_1d(up.beta(xs)) - np.atleast_1d(dn.beta(xs))
    i = int(np.argmin(gap))
    passed = bool(gap[i] >= -1e-12)
    return SweepReport(name=f"monotonicity[{spec.name}]", parameter="x",
                       values=(eps,), measured=(float(gap[i]),),
                       passed=passed,
                       details={"worst_x": float(xs[i]), "p": p,
                                "pprime": pprime, "hhat2": hhat ** 2,
                                "n_points": n_points})


# ---------------------------------------------------------------------------
# Truncated representation


def truncation_check(spec: ProblemSpec, loc: LayerLocation,
                     kink: KinkProfile, eps_values=(1e-2, 1e-3),
                     N_values=(64, 256), C_tau: float = 2.5,
                     eps_fit: float = 2.0 ** -4,
                     N_fit=(64, 256, 1024),
                     n_points: int = 10000) -> SweepReport:
    """Fitted envelope for the distance to the two-piece representation.

    The envelope constant is fitted once at the coarsest epsilon over an
    N-ladder wide enough to bracket the validation settings (the measured
    distance grows in both epsilon and log N relative to the envelope), then
    validated at the requested combinations.
    """
    def distance(eps, N):
        e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kink)
        xs = np.linspace(0.0, 1.0, n_points)
        xs = xs[(xs != loc.t0)]
        return float(np.max(np.abs(np.atleast_1d(e.u_as(xs))
                                   - np.atleast_1d(e.truncated(xs, N, C_tau)))))

    def envelope(eps, N):
        return eps * np.log(N) + N ** -2

    K = 1.05 * max(distance(eps_fit, N) / envelope(eps_fit, N) for N in N_fit)
    combos = [(eps, N) for eps in eps_values for N in N_values]
    measured = [distance(eps, N) for eps, N in combos]
    ok = [d <= K * envelope(eps, N) + 1e-14
          for d, (eps, N) in zip(measured, combos)]
    return SweepReport(name=f"truncation[{spec.name}]", parameter="(eps,N)",
                       values=tuple(combos), measured=tuple(measured),
                       threshold=float(K), passed=bool(all(ok)),
                       details={"C_tau": C_tau, "K": float(K),
                                "fitted_at_eps": eps_fit,
                                "fitted_over_N": tuple(N_fit)})


# ---------------------------------------------------------------------------
# End-to-end oracle


def solver_convergence(spec: ProblemSpec, loc: LayerLocation,
                       kink: KinkProfile,
                       eps_ladder=tuple(2.0 ** -k for k in range(5, 10)),
                       N: int = 2048, C_tau: float = 2.5,
                       min_order: float = 1.7) -> SweepReport:
    """Distance between the nonlinear-solve oracle and the expansion."""
    def one(eps):
        e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kink)
        spec_eps = ProblemSpec(name=spec.name, b=spec.b, phi0=spec.phi0,
                               phi1=spec.phi1, phi2=spec.phi2, g0=spec.g0,
                               g1=spec.g1, eps=eps)
        mesh = solver_mod.build_mesh(loc, eps, N, C_tau)
        sol = solver_mod.newton_solve(spec_eps, mesh,
                                      lambda x: np.atleast_1d(e.u_as(x)))
        d_max, _, _ = solver_mod.compare(sol, lambda x: np.atleast_1d(e.u_as(x)))
        return d_max

    measured = [one(eps) for eps in eps_ladder]
    slope, _ = loglog_fit(eps_ladder, measured)
    return SweepReport(name=f"solver-distance[{spec.name}]", parameter="eps",
                       values=tuple(eps_ladder), measured=tuple(measured),
                       slope=slope, threshold=min_order,
                       passed=bool(slope >= min_order),
                       details={"N": N, "C_tau": C_tau})
