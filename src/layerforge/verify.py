"""Quantitative verification harness.

Order claims carry unknowable constants, so every check here fits its
constant at the coarsest parameter (inflated 5%, FIT_INFLATION) and then
validates the inequality or order at the finer ones.  Reports record the
ladder, the fitted constants, and the thresholds used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corrections import CorrectionTerm
from .errors import LayerforgeError
from .expansion import build_expansion, build_perturbed
from .grids import graded_x_grid
from .kink import KinkProfile
from .locator import LayerLocation
from .problem import ProblemSpec
from . import solver as solver_mod

#: factor on every constant fitted at the coarsest parameter
FIT_INFLATION = 1.05

#: uniform points of a tail-rate fit's window
FIT_POINTS = 200

#: shared epsilon ladder for comparable order fits
EPS_LADDER = tuple(2.0 ** -k for k in range(4, 11))

#: perturbation sizes for the jump-functional sweeps
P_SWEEP = (-1e-2, -3e-3, -1e-3, -3e-4, -1e-4, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2)

#: residual-order sweep: points per rung and the least fitted order (c06)
RESIDUAL_POINTS = 2000
RESIDUAL_MIN_ORDER = 2.7

#: largest relative error of the jump functional's slope in p (c07)
PHI_SLOPE_TOL = 0.05

#: least gap beta+ - beta- of the bracketing pair, roundoff below 0 (c09),
#: and the default points of its check
MONOTONE_MIN_GAP = -1e-12
MONOTONE_POINTS = 1000

#: operator-defect margin: epsilons (the first one fits C4) and shift p
FBETA_EPS = (1e-2, 5e-3, 2e-3, 1e-3)
FBETA_P = 0.005
#: and the perturbation weight p' = FBETA_PPRIME_RATIO * eps
FBETA_PPRIME_RATIO = 0.01

#: truncation envelope fit: its epsilon and N-ladder
TRUNC_EPS_FIT = 1e-2
TRUNC_N_FIT = (64, 256, 1024)

#: nonlinear-solve oracle: epsilon ladder, mesh cells and the least fitted
#: order of its distance to the expansion (c11)
SOLVER_EPS = tuple(2.0 ** -k for k in range(5, 10))
SOLVER_N = 2048
SOLVER_MIN_ORDER = 1.7


def bracketing_weights(eps: float, p: float) -> tuple[float, float]:
    """The perturbation weights (p', hhat) = (eps p, sqrt(eps)) of the
    bracketing pair at (eps, p)."""
    return eps * p, math.sqrt(eps)


class AllZeros(LayerforgeError, ValueError):
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


def residual_sweep(spec: ProblemSpec, loc: LayerLocation,
                   kink: KinkProfile) -> SweepReport:
    """Fitted order of the maximal expansion defect across the ladder."""
    def worst(eps):
        e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kink)
        xs = graded_x_grid(loc.t0, eps, RESIDUAL_POINTS)
        return float(np.max(np.abs(e.residual(xs))))

    measured = [worst(eps) for eps in EPS_LADDER]
    slope, intercept = loglog_fit(EPS_LADDER, measured)
    return SweepReport(name=f"residual-order[{spec.name}]", parameter="eps",
                       values=EPS_LADDER, measured=tuple(measured),
                       slope=slope, intercept=intercept,
                       threshold=RESIDUAL_MIN_ORDER,
                       passed=bool(slope >= RESIDUAL_MIN_ORDER),
                       details={"n_points": RESIDUAL_POINTS})


# ---------------------------------------------------------------------------
# Jump-functional sweeps


def phi_sweep(spec: ProblemSpec, loc: LayerLocation, kink: KinkProfile,
              eps: float) -> SweepReport:
    """Linearity of the derivative-jump functional in the shift parameter.

    The regression slope is compared against eps * C_I / chi(0); the
    intercept must be third-order small.
    """
    def one(p):
        e = build_expansion(spec, p=p, eps=eps, loc=loc, kink=kink)
        return e.phi_u_as()

    phis = [one(p) for p in P_SWEEP]
    coeff = np.polyfit(np.asarray(P_SWEEP), np.asarray(phis), 1)
    chi0 = float(kink.slope(-loc.shift(eps)))
    target = eps * loc.C_I / chi0
    rel = abs(coeff[0] / target - 1.0)
    passed = bool(rel <= PHI_SLOPE_TOL)
    return SweepReport(name=f"phi-linearity[{spec.name}]", parameter="p",
                       values=P_SWEEP, measured=tuple(phis),
                       slope=float(coeff[0]), intercept=float(coeff[1]),
                       threshold=target, passed=passed,
                       details={"eps": eps, "rel_slope_error": float(rel),
                                "chi0": chi0})


@dataclass(frozen=True)
class JumpLadder:
    """Jumps on the EPS_LADDER x P_SWEEP grid, one row per eps.

    Each cell is one expansion and its perturbation with the
    bracketing_weights: `phi_u` holds Phi[u_as], `phi_beta` Phi[beta] and
    `vstar_phi` |Phi[v*]|.
    """

    phi_u: np.ndarray
    phi_beta: np.ndarray
    vstar_phi: np.ndarray


def jump_ladder(spec: ProblemSpec, loc: LayerLocation,
                kink: KinkProfile) -> JumpLadder:
    """Build each (eps, p) cell of the jump ladder once."""
    shape = (len(EPS_LADDER), len(P_SWEEP))
    phi_u, phi_beta, vstar_phi = (np.empty(shape) for _ in range(3))
    for i, eps in enumerate(EPS_LADDER):
        for j, p in enumerate(P_SWEEP):
            e = build_expansion(spec, p=p, eps=eps, loc=loc, kink=kink)
            pe = build_perturbed(e, *bracketing_weights(eps, p))
            phi_u[i, j] = e.phi_u_as()
            phi_beta[i, j] = pe.phi_beta()
            vstar_phi[i, j] = abs(pe.vstar.phi_value)
    return JumpLadder(phi_u=phi_u, phi_beta=phi_beta, vstar_phi=vstar_phi)


def phi_intercept_check(spec: ProblemSpec, ladder: JumpLadder) -> SweepReport:
    """Regression intercepts bounded by a fitted third-order envelope."""
    intercepts = [abs(float(np.polyfit(np.asarray(P_SWEEP), phis, 1)[1]))
                  for phis in ladder.phi_u]
    K = FIT_INFLATION * intercepts[0] / EPS_LADDER[0] ** 3
    # absolute floor guards problems whose intercept is pure roundoff
    ok = [ic <= K * eps ** 3 + 1e-12 for ic, eps in zip(intercepts, EPS_LADDER)]
    return SweepReport(name=f"phi-intercept[{spec.name}]", parameter="eps",
                       values=EPS_LADDER, measured=tuple(intercepts),
                       threshold=K, passed=bool(all(ok)),
                       details={"fitted_at": EPS_LADDER[0], "K": float(K)})


def phi_sign_inequality(spec: ProblemSpec, loc: LayerLocation,
                        kink: KinkProfile,
                        ladder: JumpLadder) -> tuple[SweepReport, SweepReport]:
    """Signed lower bounds on the jump functional across the ladder.

    Returns two reports: the base bound on Phi[u_as] and the perturbed bound
    on Phi[beta].  The first-order constant C1 comes from the construction
    itself (half the area slope over the largest profile weight).  The
    perturbed bound also subtracts C3 eps |p|, with C3 the largest
    |Phi[v*]| on the ladder, inflated 5%.  The third-order constant C2 of
    each bound is fitted at the coarsest epsilon and validated below it.
    """
    C1 = 0.5 * loc.C_I / float(np.max(kink.chi_table))
    C3 = FIT_INFLATION * float(np.max(ladder.vstar_phi))
    return (_sign_report(f"phi-sign[{spec.name}]", ladder.phi_u, C1, 0.0),
            _sign_report(f"phi-sign-perturbed[{spec.name}]", ladder.phi_beta,
                         C1, C3))


def _sign_report(name: str, phis: np.ndarray, C1: float,
                 C3: float) -> SweepReport:
    """sign(p) Phi >= (C1 - C3) eps |p| - C2 eps^3 on every ladder row."""
    abs_p = np.abs(P_SWEEP)
    signed = np.sign(P_SWEEP) * phis
    eps_fit = EPS_LADDER[0]
    deficits = C1 * eps_fit * abs_p - C3 * eps_fit * abs_p - signed[0]
    C2 = (FIT_INFLATION * max(float(np.max(deficits)) / eps_fit ** 3, 0.0)
          + 1e-9)
    passed = all(np.all(row >= C1 * eps * abs_p - C2 * eps ** 3
                        - C3 * eps * abs_p - 1e-14)
                 for eps, row in zip(EPS_LADDER, signed))
    return SweepReport(name=name, parameter="eps", values=EPS_LADDER,
                       measured=tuple(float(row.min()) for row in signed),
                       passed=passed,
                       details={"C1": C1, "C2": float(C2), "C3": float(C3)})


# ---------------------------------------------------------------------------
# Operator-sign margin of the perturbed expansion


def fbeta_check(spec: ProblemSpec, loc: LayerLocation,
                kink: KinkProfile) -> SweepReport:
    """Pointwise signed lower bound on the centered operator defect.

    The slack constant is fitted at the largest epsilon (where the defect
    terms are biggest) and validated at every smaller one.
    """
    margins = []
    gamma_sq = loc.gamma ** 2
    C4 = None
    for eps in FBETA_EPS:
        e = build_expansion(spec, p=FBETA_P, eps=eps, loc=loc, kink=kink)
        pprime = FBETA_PPRIME_RATIO * eps  # its own p', the bracketing hhat
        pe = build_perturbed(e, pprime, bracketing_weights(eps, FBETA_P)[1])
        xs = graded_x_grid(loc.t0, eps, 1000)
        lhs = np.sign(pprime) * pe.f_beta_centered(xs)
        base = 0.5 * pe.C0 * abs(pprime) * gamma_sq
        scale = eps ** 3 + eps * pe.hhat ** 2 + pe.hhat ** 4
        if C4 is None:
            C4 = (FIT_INFLATION * max(float(np.max(base - lhs)) / scale, 0.0)
                  + 1e-12)
        margin = float(np.min(lhs - (base - C4 * scale)))
        margins.append(margin)
    passed = bool(all(m >= 0.0 for m in margins))
    return SweepReport(name=f"fbeta-margin[{spec.name}]", parameter="eps",
                       values=FBETA_EPS, measured=tuple(margins),
                       passed=passed,
                       details={"C4": float(C4), "p": FBETA_P,
                                "fitted_at": FBETA_EPS[0]})


# ---------------------------------------------------------------------------
# Decay and monotonicity


def decay_fit(xi: np.ndarray, values: np.ndarray) -> float:
    """Exponential decay rate from a log-linear tail fit.

    Fits log |value| against |xi| on the window [Xi/2, 0.9 Xi] and returns
    the negated slope.  The fit is resampled uniformly in |xi|
    so graded tables do not overweight the near end of the window.  Raises
    AllZeros when the window holds no usable magnitudes.
    """
    xi = np.asarray(xi, dtype=float)
    values = np.asarray(values, dtype=float)
    a_xi = np.abs(xi)
    hi = float(a_xi.max())
    mask = (a_xi >= hi / 2.0) & (a_xi <= 0.9 * hi) & (np.abs(values) > 1e-280)
    if mask.sum() < 4:
        raise AllZeros("tail window has no usable values to fit")
    order = np.argsort(a_xi[mask])
    s = a_xi[mask][order]
    logv = np.log(np.abs(values[mask][order]))
    s_u = np.linspace(s[0], s[-1], FIT_POINTS)
    logv_u = np.interp(s_u, s, logv)
    slope, _ = np.polyfit(s_u, logv_u, 1)
    return float(-slope)


def term_decay_rate(term: CorrectionTerm) -> float:
    """Conservative (slower) decay rate over the two branches of a term.

    Each branch is fitted as decay_fit fits a table, on the window
    [Xi/2, 0.9 Xi], but from the term's quintic interpolant at FIT_POINTS
    uniform points: a line through log|nu| between the table's nodes would
    tie the rate to their spacing.
    """
    hi = float(term.pos[0][-1])
    s = np.linspace(0.5 * hi, 0.9 * hi, FIT_POINTS)
    rates = []
    for side in (-1, 1):
        mag = np.abs(term.value(side * s, side))
        keep = mag > 1e-280
        if keep.sum() < 4:
            raise AllZeros("tail window has no usable values to fit")
        rates.append(-float(np.polyfit(s[keep], np.log(mag[keep]), 1)[0]))
    return min(rates)


def decay_rates(kink: KinkProfile, terms: dict) -> tuple[dict, float, bool]:
    """Tail rates of the weight chi and of each layer term, the floor
    gamma_bar - 0.1 they must reach, and whether every rate reaches it."""
    floor = kink.gamma_bar - 0.1
    rates = {"chi": decay_fit(kink.xi, kink.chi_table)}
    rates.update((label, term_decay_rate(t)) for label, t in terms.items())
    return rates, floor, all(r >= floor for r in rates.values())


def monotonicity_check(spec: ProblemSpec, loc: LayerLocation,
                       kink: KinkProfile, eps: float, p: float,
                       pprime: float, hhat: float,
                       n_points: int = MONOTONE_POINTS) -> SweepReport:
    """Ordering of the oppositely-signed perturbed expansions on
    graded_x_grid(t0, eps, n_points), which keeps at least 16 layer points;
    the report gives the number of points evaluated."""
    up = build_perturbed(build_expansion(spec, p=p, eps=eps, loc=loc,
                                         kink=kink), pprime, hhat)
    dn = build_perturbed(build_expansion(spec, p=-p, eps=eps, loc=loc,
                                         kink=kink), -pprime, hhat)
    xs = graded_x_grid(loc.t0, eps, n_points)
    gap = up.beta(xs) - dn.beta(xs)
    i = int(np.argmin(gap))
    passed = bool(gap[i] >= MONOTONE_MIN_GAP)
    return SweepReport(name=f"monotonicity[{spec.name}]", parameter="x",
                       values=(eps,), measured=(float(gap[i]),),
                       passed=passed,
                       details={"worst_x": float(xs[i]), "p": p,
                                "pprime": pprime, "hhat2": hhat ** 2,
                                "n_points": int(xs.size)})


# ---------------------------------------------------------------------------
# Truncated representation


def truncation_check(spec: ProblemSpec, loc: LayerLocation,
                     kink: KinkProfile) -> SweepReport:
    """Fitted envelope for the distance to the two-piece representation.

    The envelope constant is fitted once at the coarsest epsilon over an
    N-ladder wide enough to bracket the validation settings (the measured
    distance grows in both epsilon and log N relative to the envelope), then
    validated at the requested combinations.
    """
    xs = np.linspace(0.0, 1.0, 10000)
    xs = xs[(xs != loc.t0)]
    built = {}

    def distance(eps, N):
        if eps not in built:
            e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kink)
            built[eps] = (e, e.u_as(xs))
        e, u_as = built[eps]
        return float(np.max(np.abs(u_as - e.truncated(xs, N,
                                                       solver_mod.C_TAU))))

    def envelope(eps, N):
        return eps * np.log(N) + N ** -2

    K = FIT_INFLATION * max(
        distance(TRUNC_EPS_FIT, N) / envelope(TRUNC_EPS_FIT, N)
        for N in TRUNC_N_FIT)
    combos = [(eps, N) for eps in (1e-2, 1e-3) for N in (64, 256)]
    measured = [distance(eps, N) for eps, N in combos]
    ok = [d <= K * envelope(eps, N) + 1e-14
          for d, (eps, N) in zip(measured, combos)]
    return SweepReport(name=f"truncation[{spec.name}]", parameter="(eps,N)",
                       values=tuple(combos), measured=tuple(measured),
                       threshold=float(K), passed=bool(all(ok)),
                       details={"C_tau": solver_mod.C_TAU, "K": float(K),
                                "fitted_at_eps": TRUNC_EPS_FIT,
                                "fitted_over_N": TRUNC_N_FIT})


# ---------------------------------------------------------------------------
# End-to-end oracle


def solver_convergence(spec: ProblemSpec, loc: LayerLocation,
                       kink: KinkProfile) -> SweepReport:
    """Distance between the nonlinear-solve oracle and the expansion; it
    passes at a fitted order of SOLVER_MIN_ORDER."""

    def one(eps):
        e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kink)
        mesh = solver_mod.build_mesh(loc, eps, SOLVER_N)
        sol = solver_mod.newton_solve(spec, mesh, e.u_as)
        d_max, _, _ = solver_mod.compare(sol, e.u_as)
        return d_max

    measured = [one(eps) for eps in SOLVER_EPS]
    slope, _ = loglog_fit(SOLVER_EPS, measured)
    return SweepReport(name=f"solver-distance[{spec.name}]", parameter="eps",
                       values=SOLVER_EPS, measured=tuple(measured),
                       slope=slope, threshold=SOLVER_MIN_ORDER,
                       passed=bool(slope >= SOLVER_MIN_ORDER),
                       details={"N": SOLVER_N, "C_tau": solver_mod.C_TAU})
