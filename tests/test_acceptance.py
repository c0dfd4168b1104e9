"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion; each prints its pass/fail line.  The registry in
layerforge.acceptance is the single source of truth shared with the CLI
`all` subcommand.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from layerforge import acceptance, cli, verify
from layerforge.acceptance import (CRITERIA, AcceptanceContext,
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
                                   criterion_11_solver_oracle)


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[fn.__name__.replace("criterion_", "c")
                              for fn in CRITERIA])
def test_criterion(criterion, actx):
    result = criterion(actx)
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    assert result.passed, "\n".join([result.line(), *result.details])


def test_c07_and_c08_build_each_ladder_cell_once(monkeypatch):
    """Per problem: the 70 ladder cells, 10 phi_sweep and 4 fbeta_check
    expansions, and 70 + 4 perturbed ones.  Cheap stand-ins replace the
    builds, so only the counts are checked here; test_criterion checks the
    numbers."""
    calls = {"expansion": 0, "perturbed": 0}

    def expansion(spec, p, eps, loc, kink):
        calls["expansion"] += 1
        return SimpleNamespace(phi_u_as=lambda: 0.0)

    def perturbed(base, pprime, hhat):
        calls["perturbed"] += 1
        return SimpleNamespace(phi_beta=lambda: 0.0, C0=1.0, hhat=hhat,
                               vstar=SimpleNamespace(phi_value=0.0),
                               f_beta_centered=np.zeros_like)

    monkeypatch.setattr(verify, "build_expansion", expansion)
    monkeypatch.setattr(verify, "build_perturbed", perturbed)
    ctx = AcceptanceContext()
    criterion_07_phi_linearity(ctx)
    criterion_08_sign_inequalities(ctx)
    assert calls == {"expansion": 168, "perturbed": 148}


def test_c10_builds_one_expansion_per_epsilon(monkeypatch, actx):
    """Per problem: one expansion at each of the two epsilons (the fit one,
    1e-2, and 1e-3), which the N ladder reuses.  Stand-ins replace the
    builds, so only the count is checked here."""
    built = []

    def expansion(spec, p, eps, loc, kink):
        built.append((spec.name, eps))
        return SimpleNamespace(u_as=np.zeros_like,
                               truncated=lambda xs, N, C_tau: 0.0 * xs)

    monkeypatch.setattr(verify, "build_expansion", expansion)
    criterion_10_truncation(actx)
    assert sorted(built) == sorted((name, eps) for name in actx.problem_names
                                   for eps in (1e-2, 1e-3))


@pytest.mark.parametrize("criterion, module, bound, value, printed", [
    (criterion_06_residual_order, verify, "RESIDUAL_MIN_ORDER", 99.0,
     "need >= 99"),
    (criterion_07_phi_linearity, verify, "PHI_SLOPE_TOL", 1e-6,
     "tol 0.0001%"),
    (criterion_09_monotonicity, verify, "MONOTONE_MIN_GAP", 1.0, "need >= 1"),
    (criterion_11_solver_oracle, verify, "SOLVER_MIN_ORDER", 99.0,
     "need >= 99"),
    (criterion_01_kink_oracle, acceptance, "C01_PROFILE_TOL", -1.0, "tol -1"),
    (criterion_01_kink_oracle, acceptance, "C01_CHI0_TOL", -1.0, "tol -1"),
    (criterion_02_layer_location, acceptance, "C02_T0_TOL", -1.0, "tol -1"),
    (criterion_02_layer_location, acceptance, "C02_CI_TOL", -1.0, "tol -1"),
    (criterion_03_matching, acceptance, "C03_T1_TOL", -1.0, "tol -1"),
    (criterion_03_matching, acceptance, "C03_MOMENT_TOL", -1.0, "tol -1"),
    (criterion_04_jump_oracle, acceptance, "C04_TOL", -1.0, "tol -1"),
    (criterion_05_exact_identities, acceptance, "C05_PHI_Z_TOL", -1.0,
     "tol -1"),
    (criterion_05_exact_identities, acceptance, "C05_PHI_VSTAR_TOL", -1.0,
     "tol -1"),
    (criterion_11_solver_oracle, acceptance, "C11_MAX_ITER", 0,
     "need <= 0"),
], ids=["c06", "c07", "c09", "c11", "c01-profile", "c01-chi0", "c02-t0",
        "c02-CI", "c03-t1", "c03-moment", "c04", "c05-z", "c05-vstar",
        "c11-iterations"])
def test_bound_sets_verdict_and_printed_line(monkeypatch, actx, criterion,
                                              module, bound, value, printed):
    """Each gate bound is one constant of `module`: the check and its
    detail line both read it, so a bound out of reach fails and is what
    prints."""
    assert criterion(actx).passed
    monkeypatch.setattr(module, bound, value)
    result = criterion(actx)
    assert not result.passed
    assert any(f"{printed})" in line for line in result.details)


def test_format_bound_prints_bounds_as_the_suite_does():
    """Exponents lose their leading zero; other bounds print as `g`."""
    printed = [acceptance.format_bound(bound)
               for bound in (1e-6, 1e-8, 1e-9, 1e-10, 8, 2.7, -1e-12)]
    assert printed == ["1e-6", "1e-8", "1e-9", "1e-10", "8", "2.7", "-1e-12"]


def test_bracketing_weights_are_read_by_every_consumer(monkeypatch, actx,
                                                       capsys):
    """The jump ladder, c09 and `layerforge monotone` all take (p', hhat)
    from verify.bracketing_weights."""
    def weights(eps, p):
        return 2.0 * eps * p, 0.5 * np.sqrt(eps)

    used = []

    def perturbed(base, pprime, hhat):
        used.append((base.eps, base.p, pprime, hhat))
        return SimpleNamespace(phi_beta=lambda: 0.0, beta=np.zeros_like,
                               vstar=SimpleNamespace(phi_value=0.0))

    monkeypatch.setattr(verify, "bracketing_weights", weights)
    monkeypatch.setattr(verify, "build_expansion",
                        lambda spec, p, eps, loc, kink: SimpleNamespace(
                            eps=eps, p=p, phi_u_as=lambda: 0.0))
    monkeypatch.setattr(verify, "build_perturbed", perturbed)
    cells = len(verify.EPS_LADDER) * len(verify.P_SWEEP)
    verify.jump_ladder(*actx.pipeline("cubic"))
    assert len(used) == cells
    criterion_09_monotonicity(actx)  # a pair at each of two epsilons
    assert len(used) == cells + 4 * len(actx.problem_names)
    assert cli.main(["monotone", "--problem", "cubic"]) == 0
    report = json.loads(capsys.readouterr().out)
    pprime, hhat = weights(0.01, 0.01)
    assert (report["details"]["pprime"], report["details"]["hhat2"]) == \
        (pprime, hhat ** 2)
    for eps, p, pprime, hhat in used:
        assert (abs(pprime), hhat) == weights(eps, abs(p))
