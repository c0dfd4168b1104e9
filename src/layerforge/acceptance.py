"""Acceptance suite: every gate criterion as a runnable check.

Each criterion returns a CriterionResult; the CLI `all` subcommand and the
acceptance test module both consume this registry so the pass/fail story is
identical everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import corrections, locator, problem, solver, verify
from .expansion import build_expansion
from .quadrature import composite_simpson

#: subintervals of criterion 03's Simpson oracle for C_II, its own count:
#: C_II is a quadrature over the profile and never reads the correction grid
C03_SIMPSON_N = 160002

#: tolerances of criteria 01-05 against their closed forms and oracles, and
#: the most Newton iterations of criterion 11's solve at eps = 1e-2, N = 512
C01_PROFILE_TOL, C01_CHI0_TOL = 1e-8, 1e-9
C02_T0_TOL, C02_CI_TOL = 1e-10, 1e-9
C03_T1_TOL, C03_MOMENT_TOL = 1e-8, 1e-8
C04_TOL = 1e-6
C05_PHI_Z_TOL, C05_PHI_VSTAR_TOL = 1e-8, 1e-6
C11_MAX_ITER = 8


def format_bound(bound) -> str:
    """A bound as the detail lines print it: `g` format without the
    exponent's leading zero (1e-8, not 1e-08)."""
    return format(bound, "g").replace("e-0", "e-")


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    details: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid:02d} [{status}] {self.description}"


class AcceptanceContext:
    """Caches the epsilon-independent pipeline per problem."""

    def __init__(self, problems=tuple(problem.BUILTIN_PROBLEMS)):
        self.problem_names = tuple(problems)
        self._cache: dict = {}

    def pipeline(self, name: str):
        if name not in self._cache:
            spec = problem.builtin_problem(name)
            self._cache[name] = (spec, *corrections.locate_and_match(spec))
        return self._cache[name]

    def terms(self, name: str):
        key = (name, "terms")
        if key not in self._cache:
            spec, loc, kk = self.pipeline(name)
            aux = corrections.make_auxiliary(spec, kk, loc, p=0.0,
                                             tbar1=loc.shift(spec.eps))
            self._cache[key] = (aux, corrections.build_terms(aux))
        return self._cache[key]

    def ladder(self, name: str) -> verify.JumpLadder:
        """The (eps, p) jump ladder that criteria 07 and 08 both read."""
        key = (name, "ladder")
        if key not in self._cache:
            self._cache[key] = verify.jump_ladder(*self.pipeline(name))
        return self._cache[key]


#: every criterion, in the order of its number
CRITERIA = []


def _criterion(cid: int, description: str, per_problem: bool = False):
    """Register a generator of (passed, detail line) rows as criterion
    `cid`, called as criterion(ctx): it passes when every row does.  A
    per-problem generator takes (ctx, name) and runs on every problem of
    ctx."""
    def register(rows_of):
        @functools.wraps(rows_of)
        def criterion(ctx: AcceptanceContext) -> CriterionResult:
            rows = ([row for name in ctx.problem_names
                     for row in rows_of(ctx, name)]
                    if per_problem else list(rows_of(ctx)))
            return CriterionResult(cid, description,
                                   all(ok for ok, _ in rows),
                                   [line for _, line in rows])
        CRITERIA.append(criterion)
        return criterion
    return register


def _within(label: str, value: float, tol: float):
    """The row of a measured value against its tolerance."""
    return value <= tol, f"{label}{value:.3e} (tol {format_bound(tol)})"


@_criterion(1, "profile vs closed-form logistic")
def criterion_01_kink_oracle(ctx: AcceptanceContext):
    """Profile matches the closed-form logistic on the symmetric cubic."""
    spec, loc, kk = ctx.pipeline("cubic")
    probe = np.linspace(-10.0, 10.0, 4001)
    exact = 1.0 / (1.0 + np.exp(-probe / math.sqrt(2.0)))
    err = float(np.max(np.abs(kk.value(probe) - exact)))
    yield _within("max profile error on |xi| <= 10: ", err, C01_PROFILE_TOL)
    yield _within("|chi(0) - 1/(4 sqrt 2)| = ",
                  abs(kk.chi_at_zero - 1.0 / (4.0 * math.sqrt(2.0))),
                  C01_CHI0_TOL)


@_criterion(2, "layer location and orientation guard")
def criterion_02_layer_location(ctx: AcceptanceContext):
    """Layer point and area slope on the cubic; mirrored variant rejected."""
    spec, loc, _ = ctx.pipeline("cubic")
    yield _within("|t0 - 0.5| = ", abs(loc.t0 - 0.5), C02_T0_TOL)
    yield _within("|C_I - 1/12| = ", abs(loc.C_I - 1.0 / 12.0), C02_CI_TOL)
    spec_f = problem.problem_from_dict(
        problem.REFERENCE_PROBLEMS["cubic-flipped"])
    try:
        locator.locate_t0(spec_f)
        raised = False
    except locator.WrongOrientation:
        raised = True
    yield raised, f"mirrored variant raises WrongOrientation: {raised}"


@_criterion(3, "matching constants")
def criterion_03_matching(ctx: AcceptanceContext):
    """First-order shift vanishes on the symmetric cubic; the first-moment
    constant agrees with an independent quadrature rule."""
    _, loc_c, _ = ctx.pipeline("cubic")
    yield _within("cubic |t1| = ", abs(loc_c.t1), C03_T1_TOL)
    spec_w, loc_w, kk_w = ctx.pipeline("cubic-wavy")

    def moment(xi):
        return (xi * spec_w.b_val(loc_w.t0, kk_w.value(xi), dx=1)
                * kk_w.slope(xi))

    oracle = composite_simpson(moment, -kk_w.xi_max, kk_w.xi_max,
                               C03_SIMPSON_N)
    yield _within("wavy first-moment vs doubled-node Simpson: ",
                  abs(loc_w.C_II - oracle), C03_MOMENT_TOL)


@_criterion(4, "jump formula vs FD oracle", per_problem=True)
def criterion_04_jump_oracle(ctx: AcceptanceContext, name: str):
    """Integral-formula solutions vs the tridiagonal FD oracle, and the
    quadrature jump vs one-sided table derivatives."""
    aux, terms = ctx.terms(name)
    for label, term in terms.items():
        (xn, fdn), (xp, fdp) = solver.solve_jump_fd_numerov(
            lambda xi: aux.at(xi).B(0, 1),
            lambda xi, side: term.psi_fn(aux.at(xi, side)),
            term.jump_minus, term.jump_plus)
        gap = max(float(np.max(np.abs(fdn - term.value(xn, side=-1)))),
                  float(np.max(np.abs(fdp - term.value(xp, side=1)))))
        dphi = abs(term.phi_value - corrections.phi_from_tables(term))
        yield (gap <= C04_TOL and dphi <= C04_TOL,
               f"{name}/{label}: oracle gap {gap:.3e}, jump cross-check "
               f"{dphi:.3e} (tol {format_bound(C04_TOL)})")


@_criterion(5, "exact jump identities")
def criterion_05_exact_identities(ctx: AcceptanceContext):
    """Closed forms of the perturbation jumps on the cubic.

    Phi[z] vanishes.  For v*, with psi = |v0| and chi = V0', each half-line
    gives int v0 v0' = v0(0+-)^2 / 2, so Phi[v*] = -(v0(0-)^2 + v0(0+)^2)
    / (2 chi(0)) = -sqrt(2) from v0(0+-) = +-1/2 and chi(0) = 1/(4 sqrt 2).
    The paper prints -2 sqrt(2), which drops that 1/2; it is reported, not
    asserted.
    """
    _, terms = ctx.terms("cubic")
    phi_z = terms["z"].phi_value
    phi_vstar = terms["vstar"].phi_value
    v0_jump, chi0 = 0.5, 1.0 / (4.0 * math.sqrt(2.0))
    derived = -(2.0 * v0_jump ** 2) / (2.0 * chi0)
    printed = -2.0 * math.sqrt(2.0)
    yield _within("|Phi[z]| = ", abs(phi_z), C05_PHI_Z_TOL)
    yield _within(f"Phi[v*] = {phi_vstar:.9f}, closed form -sqrt(2) = "
                  f"{derived:.9f}, gap ", abs(phi_vstar - derived),
                  C05_PHI_VSTAR_TOL)
    yield True, (f"paper's printed -2 sqrt(2) = {printed:.9f}; measured/"
                 f"printed = {phi_vstar / printed:.6f} (the printed form "
                 "drops the 1/2 of int v0 v0' = v0^2/2)")


@_criterion(6, "third-order residual decay", per_problem=True)
def criterion_06_residual_order(ctx: AcceptanceContext, name: str):
    rep = verify.residual_sweep(*ctx.pipeline(name))
    yield rep.passed, (f"{name}: fitted order {rep.slope:.3f} "
                       f"(need >= {format_bound(verify.RESIDUAL_MIN_ORDER)})")


@_criterion(7, "jump-functional linearity", per_problem=True)
def criterion_07_phi_linearity(ctx: AcceptanceContext, name: str):
    rep = verify.phi_sweep(*ctx.pipeline(name), eps=1e-2)
    yield rep.passed, (
        f"{name}: slope {rep.slope:.6g} vs target {rep.threshold:.6g} "
        f"(rel {rep.details['rel_slope_error']:.3%}, "
        f"tol {format_bound(100 * verify.PHI_SLOPE_TOL)}%)")
    rep = verify.phi_intercept_check(ctx.pipeline(name)[0], ctx.ladder(name))
    yield rep.passed, (f"{name}: intercept envelope K = "
                       f"{rep.details['K']:.3e} validated on the ladder: "
                       f"{rep.passed}")


@_criterion(8, "signed lower bounds", per_problem=True)
def criterion_08_sign_inequalities(ctx: AcceptanceContext, name: str):
    spec, loc, kk = ctx.pipeline(name)
    rep1, rep2 = verify.phi_sign_inequality(spec, loc, kk, ctx.ladder(name))
    rep3 = verify.fbeta_check(spec, loc, kk)
    gap = rep2.details["C1"] - rep2.details["C3"]
    vacuous = "" if gap > 0.0 else ", not positive: a wrong-sign jump can pass"
    yield rep1.passed and rep2.passed and rep3.passed, (
        f"{name}: base bound {rep1.passed} (C1={rep1.details['C1']:.3g}, "
        f"C2={rep1.details['C2']:.3g}); perturbed bound {rep2.passed} "
        f"(C3={rep2.details['C3']:.3g}, C1 - C3={gap:.3g}{vacuous}); "
        f"defect margin {rep3.passed} (C4={rep3.details['C4']:.3g})")


@_criterion(9, "bracketing order of the perturbed pair", per_problem=True)
def criterion_09_monotonicity(ctx: AcceptanceContext, name: str):
    for eps in (1e-2, 1e-3):
        pprime, hhat = verify.bracketing_weights(eps, 0.01)
        rep = verify.monotonicity_check(*ctx.pipeline(name), eps=eps,
                                        p=0.01, pprime=pprime, hhat=hhat)
        yield rep.passed, (
            f"{name} eps={eps:g}: worst gap {rep.measured[0]:.3e} "
            f"(need >= {format_bound(verify.MONOTONE_MIN_GAP)})")


@_criterion(10, "two-piece truncation envelope", per_problem=True)
def criterion_10_truncation(ctx: AcceptanceContext, name: str):
    rep = verify.truncation_check(*ctx.pipeline(name))
    yield rep.passed, (f"{name}: K = {rep.details['K']:.4g}, "
                       f"validated combos pass: {rep.passed}")


@_criterion(11, "end-to-end nonlinear-solve oracle")
def criterion_11_solver_oracle(ctx: AcceptanceContext):
    spec, loc, kk = ctx.pipeline("cubic")
    e = build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
    sol = solver.newton_solve(spec, solver.build_mesh(loc, 1e-2, 512), e.u_as)
    yield sol.iterations <= C11_MAX_ITER, (
        f"iterations at eps=1e-2, N=512: {sol.iterations} "
        f"(need <= {format_bound(C11_MAX_ITER)})")
    rep = verify.solver_convergence(spec, loc, kk)
    yield rep.passed, (f"distance order over the ladder: {rep.slope:.3f} "
                       f"(need >= {format_bound(verify.SOLVER_MIN_ORDER)})")


@_criterion(12, "exponential tail rates", per_problem=True)
def criterion_12_decay_rates(ctx: AcceptanceContext, name: str):
    rates, floor, passed = verify.decay_rates(ctx.pipeline(name)[2],
                                              ctx.terms(name)[1])
    listed = ", ".join(f"{label} {rate:.4f}" for label, rate in rates.items())
    yield passed, f"{name}: rates {listed} (floor {floor:.4f})"


def run_all(problems=tuple(problem.BUILTIN_PROBLEMS)):
    """Run every criterion, printing each result as it ends; returns the
    list of results."""
    ctx = AcceptanceContext(problems)
    results = []
    for crit in CRITERIA:
        res = crit(ctx)
        results.append(res)
        print(res.line())
        for d in res.details:
            print(f"    {d}")
    return results
