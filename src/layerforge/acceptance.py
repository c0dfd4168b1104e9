"""Acceptance suite: every gate criterion as a runnable check.

Each criterion returns a CriterionResult; the CLI `all` subcommand and the
acceptance test module both consume this registry so the pass/fail story is
identical everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import corrections, locator, problem, solver, verify
from .expansion import build_expansion
from .quadrature import composite_simpson

#: subintervals of criterion 03's Simpson oracle for C_II, its own count:
#: C_II is a quadrature over the profile and never reads the correction grid
C03_SIMPSON_N = 160002


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
            aux = corrections.make_auxiliary(spec, kk, loc, p=0.0)
            self._cache[key] = (aux, corrections.build_terms(aux))
        return self._cache[key]

    def ladder(self, name: str) -> verify.JumpLadder:
        """The (eps, p) jump ladder that criteria 07 and 08 both read."""
        key = (name, "ladder")
        if key not in self._cache:
            self._cache[key] = verify.jump_ladder(*self.pipeline(name))
        return self._cache[key]


def _every_problem(ctx: AcceptanceContext, cid: int, description: str,
                   check) -> CriterionResult:
    """Criterion `cid` over every problem of ctx: check(name) yields
    (passed, detail line) pairs, and the criterion passes when all do."""
    rows = [row for name in ctx.problem_names for row in check(name)]
    return CriterionResult(cid, description, all(ok for ok, _ in rows),
                           [line for _, line in rows])


def criterion_01_kink_oracle(ctx: AcceptanceContext) -> CriterionResult:
    """Profile matches the closed-form logistic on the symmetric cubic."""
    spec, loc, kk = ctx.pipeline("cubic")
    probe = np.linspace(-10.0, 10.0, 4001)
    exact = 1.0 / (1.0 + np.exp(-probe / math.sqrt(2.0)))
    err = float(np.max(np.abs(kk.value(probe) - exact)))
    chi0 = kk.chi_at_zero
    chi0_exact = 1.0 / (4.0 * math.sqrt(2.0))
    ok = err <= 1e-8 and abs(chi0 - chi0_exact) <= 1e-9
    return CriterionResult(1, "profile vs closed-form logistic", ok, [
        f"max profile error on |xi| <= 10: {err:.3e} (tol 1e-8)",
        f"|chi(0) - 1/(4 sqrt 2)| = {abs(chi0 - chi0_exact):.3e} (tol 1e-9)"])


def criterion_02_layer_location(ctx: AcceptanceContext) -> CriterionResult:
    """Layer point and area slope on the cubic; mirrored variant rejected."""
    spec, loc, _ = ctx.pipeline("cubic")
    ok_t0 = abs(loc.t0 - 0.5) <= 1e-10
    ok_ci = abs(loc.C_I - 1.0 / 12.0) <= 1e-9
    flipped = dict(problem.BUILTIN_PROBLEMS["cubic"])
    flipped["name"] = "cubic-flipped"
    flipped["b"] = "u*(u-(0.25+0.5*x))*(u-1)"
    flipped["phi0"] = "0.25+0.5*x"
    spec_f = problem.problem_from_dict(flipped)
    try:
        locator.locate_t0(spec_f)
        raised = False
    except locator.WrongOrientation:
        raised = True
    ok = ok_t0 and ok_ci and raised
    return CriterionResult(2, "layer location and orientation guard", ok, [
        f"|t0 - 0.5| = {abs(loc.t0 - 0.5):.3e} (tol 1e-10)",
        f"|C_I - 1/12| = {abs(loc.C_I - 1.0 / 12.0):.3e} (tol 1e-9)",
        f"mirrored variant raises WrongOrientation: {raised}"])


def criterion_03_matching(ctx: AcceptanceContext) -> CriterionResult:
    """First-order shift vanishes on the symmetric cubic; the first-moment
    constant agrees with an independent quadrature rule."""
    _, loc_c, _ = ctx.pipeline("cubic")
    ok_t1 = abs(loc_c.t1) <= 1e-8
    spec_w, loc_w, kk_w = ctx.pipeline("cubic-wavy")

    def moment(xi):
        return (xi * spec_w.b_val(loc_w.t0, kk_w.value(xi), dx=1)
                * kk_w.slope(xi))

    oracle = composite_simpson(moment, -kk_w.xi_max, kk_w.xi_max,
                               C03_SIMPSON_N)
    gap = abs(loc_w.C_II - oracle)
    ok = ok_t1 and gap <= 1e-8
    return CriterionResult(3, "matching constants", ok, [
        f"cubic |t1| = {abs(loc_c.t1):.3e} (tol 1e-8)",
        f"wavy first-moment vs doubled-node Simpson: {gap:.3e} (tol 1e-8)"])


def criterion_04_jump_oracle(ctx: AcceptanceContext) -> CriterionResult:
    """Integral-formula solutions vs the tridiagonal FD oracle, and the
    quadrature jump vs one-sided table derivatives."""
    def check(name):
        aux, terms = ctx.terms(name)
        for label, term in terms.items():
            (xn, fdn), (xp, fdp) = solver.solve_jump_fd_numerov(
                lambda xi: aux.at(xi).B(0, 1),
                lambda xi, side: term.psi_fn(aux.at(xi, side)),
                term.jump_minus, term.jump_plus)
            gap = max(float(np.max(np.abs(fdn - term.value(xn, side=-1)))),
                      float(np.max(np.abs(fdp - term.value(xp, side=1)))))
            dphi = abs(term.phi_value - corrections.phi_from_tables(term))
            yield (gap <= 1e-6 and dphi <= 1e-6,
                   f"{name}/{label}: oracle gap {gap:.3e}, "
                   f"jump cross-check {dphi:.3e} (tol 1e-6)")
    return _every_problem(ctx, 4, "jump formula vs FD oracle", check)


def criterion_05_exact_identities(ctx: AcceptanceContext) -> CriterionResult:
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
    ok_z = abs(phi_z) <= 1e-8
    ok_vstar = abs(phi_vstar - derived) <= 1e-6
    return CriterionResult(5, "exact jump identities", ok_z and ok_vstar, [
        f"|Phi[z]| = {abs(phi_z):.3e} (tol 1e-8)",
        f"Phi[v*] = {phi_vstar:.9f}, closed form -sqrt(2) = {derived:.9f}, "
        f"gap {abs(phi_vstar - derived):.3e} (tol 1e-6)",
        f"paper's printed -2 sqrt(2) = {printed:.9f}; measured/printed = "
        f"{phi_vstar / printed:.6f} (the printed form drops the 1/2 of "
        "int v0 v0' = v0^2/2)"])


def criterion_06_residual_order(ctx: AcceptanceContext) -> CriterionResult:
    def check(name):
        rep = verify.residual_sweep(*ctx.pipeline(name))
        yield rep.passed, (f"{name}: fitted order {rep.slope:.3f} "
                           f"(need >= {verify.RESIDUAL_MIN_ORDER:g})")
    return _every_problem(ctx, 6, "third-order residual decay", check)


def criterion_07_phi_linearity(ctx: AcceptanceContext) -> CriterionResult:
    def check(name):
        rep = verify.phi_sweep(*ctx.pipeline(name), eps=1e-2)
        yield rep.passed, (
            f"{name}: slope {rep.slope:.6g} vs target {rep.threshold:.6g} "
            f"(rel {rep.details['rel_slope_error']:.3%}, "
            f"tol {100 * verify.PHI_SLOPE_TOL:g}%)")
        rep = verify.phi_intercept_check(ctx.pipeline(name)[0],
                                         ctx.ladder(name))
        yield rep.passed, (f"{name}: intercept envelope K = "
                           f"{rep.details['K']:.3e} validated on the ladder: "
                           f"{rep.passed}")
    return _every_problem(ctx, 7, "jump-functional linearity", check)


def criterion_08_sign_inequalities(ctx: AcceptanceContext) -> CriterionResult:
    def check(name):
        spec, loc, kk = ctx.pipeline(name)
        rep1, rep2 = verify.phi_sign_inequality(spec, loc, kk,
                                                ctx.ladder(name))
        rep3 = verify.fbeta_check(spec, loc, kk)
        gap = rep2.details["C1"] - rep2.details["C3"]
        vacuous = ("" if gap > 0.0
                   else ", not positive: a wrong-sign jump can pass")
        yield rep1.passed and rep2.passed and rep3.passed, (
            f"{name}: base bound {rep1.passed} (C1={rep1.details['C1']:.3g}, "
            f"C2={rep1.details['C2']:.3g}); perturbed bound {rep2.passed} "
            f"(C3={rep2.details['C3']:.3g}, C1 - C3={gap:.3g}{vacuous}); "
            f"defect margin {rep3.passed} (C4={rep3.details['C4']:.3g})")
    return _every_problem(ctx, 8, "signed lower bounds", check)


def criterion_09_monotonicity(ctx: AcceptanceContext) -> CriterionResult:
    def check(name):
        for eps in (1e-2, 1e-3):
            pprime, hhat = verify.bracketing_weights(eps, 0.01)
            rep = verify.monotonicity_check(*ctx.pipeline(name), eps=eps,
                                            p=0.01, pprime=pprime, hhat=hhat)
            yield rep.passed, (f"{name} eps={eps:g}: worst gap "
                               f"{rep.measured[0]:.3e} "
                               f"(need >= {verify.MONOTONE_MIN_GAP:g})")
    return _every_problem(ctx, 9, "bracketing order of the perturbed pair",
                          check)


def criterion_10_truncation(ctx: AcceptanceContext) -> CriterionResult:
    def check(name):
        rep = verify.truncation_check(*ctx.pipeline(name))
        yield rep.passed, (f"{name}: K = {rep.details['K']:.4g}, "
                           f"validated combos pass: {rep.passed}")
    return _every_problem(ctx, 10, "two-piece truncation envelope", check)


def criterion_11_solver_oracle(ctx: AcceptanceContext) -> CriterionResult:
    spec, loc, kk = ctx.pipeline("cubic")
    e = build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
    mesh = solver.build_mesh(loc, 1e-2, 512)
    spec_eps = problem.builtin_problem("cubic", eps=1e-2)
    sol = solver.newton_solve(spec_eps, mesh, e.u_as)
    ok_iters = sol.iterations <= 8
    rep = verify.solver_convergence(spec, loc, kk)
    ok = ok_iters and rep.passed
    return CriterionResult(11, "end-to-end nonlinear-solve oracle", ok, [
        f"iterations at eps=1e-2, N=512: {sol.iterations} (need <= 8)",
        f"distance order over the ladder: {rep.slope:.3f} "
        f"(need >= {verify.SOLVER_MIN_ORDER:g})"])


def criterion_12_decay_rates(ctx: AcceptanceContext) -> CriterionResult:
    def check(name):
        rates, floor, passed = verify.decay_rates(ctx.pipeline(name)[2],
                                                  ctx.terms(name)[1])
        listed = ", ".join(f"{label} {rate:.4f}"
                           for label, rate in rates.items())
        yield passed, f"{name}: rates {listed} (floor {floor:.4f})"
    return _every_problem(ctx, 12, "exponential tail rates", check)


CRITERIA = (
    criterion_01_kink_oracle,
    criterion_02_layer_location,
    criterion_03_matching,
    criterion_04_jump_oracle,
    criterion_05_exact_identities,
    criterion_06_residual_order,
    criterion_07_phi_linearity,
    criterion_08_sign_inequalities,
    criterion_09_monotonicity,
    criterion_10_truncation,
    criterion_11_solver_oracle,
    criterion_12_decay_rates,
)


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
