import math

import numpy as np
import pytest

from layerforge import verify
from layerforge.expansion import build_expansion, build_perturbed
from layerforge.grids import graded_x_grid


class TestFits:
    def test_loglog_fit_needs_points(self):
        with pytest.raises(ValueError):
            verify.loglog_fit([1.0, 0.5, 0.25], [1.0, 0.25, 0.0625])

    def test_loglog_fit_recovers_order(self):
        xs = [2.0 ** -k for k in range(4, 10)]
        ys = [3.0 * x ** 2.5 for x in xs]
        slope, intercept = verify.loglog_fit(xs, ys)
        assert slope == pytest.approx(2.5, abs=1e-12)
        assert math.exp(intercept) == pytest.approx(3.0, rel=1e-12)

    def test_decay_fit_recovers_rate(self):
        xi = np.linspace(0.0, 40.0, 2001)
        vals = 2.0 * np.exp(-0.6 * xi)
        assert verify.decay_fit(xi, vals) == pytest.approx(0.6, abs=1e-9)

    def test_decay_fit_all_zeros(self):
        xi = np.linspace(0.0, 40.0, 101)
        with pytest.raises(verify.AllZeros):
            verify.decay_fit(xi, np.zeros_like(xi))

    def test_chi_rate_matches_logistic(self, cubic):
        _, _, kk = cubic
        rate = verify.decay_fit(kk.xi, kk.chi_table)
        assert rate == pytest.approx(1.0 / math.sqrt(2.0), rel=0.05)


class TestResidualSweep:
    def test_cubic_order(self, cubic):
        spec, loc, kk = cubic
        rep = verify.residual_sweep(spec, loc, kk)
        assert rep.passed
        assert rep.slope >= 2.7
        # the ladder is the shared one
        assert rep.values == verify.EPS_LADDER


class TestPhiSweeps:
    def test_slope_against_construction(self, cubic):
        spec, loc, kk = cubic
        rep = verify.phi_sweep(spec, loc, kk, eps=1e-2)
        assert rep.passed
        assert rep.threshold == pytest.approx(1e-2 * math.sqrt(2.0) / 3.0,
                                              rel=1e-9)

    def test_sign_inequality_reports_empirical_threshold(self, actx, cubic):
        spec, loc, kk = cubic
        rep, _ = verify.phi_sign_inequality(spec, loc, kk,
                                            actx.ladder("cubic"))
        assert rep.passed
        assert rep.details["eps_star_empirical"] == max(verify.EPS_LADDER)


class TestMonotonicity:
    def test_pass_case(self, cubic):
        spec, loc, kk = cubic
        rep = verify.monotonicity_check(spec, loc, kk, eps=1e-3, p=0.01,
                                        pprime=1e-5, hhat=math.sqrt(1e-3))
        assert rep.passed
        assert rep.measured[0] >= -1e-12

    def test_degenerate_zero_perturbation(self, cubic):
        spec, loc, kk = cubic
        rep = verify.monotonicity_check(spec, loc, kk, eps=1e-2, p=0.0,
                                        pprime=0.0, hhat=0.0)
        assert rep.passed
        assert rep.measured[0] == pytest.approx(0.0, abs=1e-14)

    def test_flipped_arguments_fail_with_location(self, cubic):
        spec, loc, kk = cubic
        rep = verify.monotonicity_check(spec, loc, kk, eps=1e-3, p=-0.01,
                                        pprime=-1e-5, hhat=math.sqrt(1e-3))
        assert not rep.passed
        assert "worst_x" in rep.details


class TestFBeta:
    def test_negative_perturbation_mirrors(self, cubic):
        spec, loc, kk = cubic
        rep = verify.fbeta_check(spec, loc, kk,
                                 pprime_rule=lambda eps: -0.01 * eps)
        assert rep.passed

    def test_zero_perturbation_degenerates_to_bound(self, cubic):
        """At p' = 0 the centered defect is bounded by the slack terms."""
        spec, loc, kk = cubic
        eps = 1e-3
        e = build_expansion(spec, p=0.005, eps=eps, loc=loc, kink=kk)
        pe = build_perturbed(e, pprime=0.0, hhat=math.sqrt(eps))
        xs = graded_x_grid(loc.t0, eps, 500)
        worst = np.max(np.abs(np.atleast_1d(pe.f_beta_centered(xs))))
        slack = eps ** 3 + eps * pe.hhat ** 2 + pe.hhat ** 4
        assert worst <= 100.0 * slack


def test_report_summary_format(cubic):
    spec, loc, kk = cubic
    rep = verify.residual_sweep(spec, loc, kk)
    assert rep.summary().startswith("[pass]")
