"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion; each prints its pass/fail line.  The registry in
layerforge.acceptance is the single source of truth shared with the CLI
`all` subcommand.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from layerforge import verify
from layerforge.acceptance import (CRITERIA, AcceptanceContext,
                                   criterion_07_phi_linearity,
                                   criterion_08_sign_inequalities,
                                   criterion_10_truncation)


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
