import json
import math

import pytest

from layerforge import cli, locator, problem

CUBIC = problem.BUILTIN_PROBLEMS["cubic"]


def variant(**overrides):
    data = dict(CUBIC)
    data.update(overrides)
    return problem.problem_from_dict(data)


class TestIntegral:
    def test_closed_form_at_zero(self, cubic):
        spec, _, _ = cubic
        # int of u(u-m)(u-1) over [0,1] is (2m-1)/12 with m = 0.75
        assert locator.integral_I(spec, 0.0) == pytest.approx(1.0 / 24.0,
                                                              abs=1e-14)

    def test_vanishes_at_layer_point(self, cubic):
        spec, _, _ = cubic
        assert abs(locator.integral_I(spec, 0.5)) <= 1e-12

    def test_empty_interval(self):
        spec = variant(phi1="0.3", phi2="0.3")
        assert locator.integral_I(spec, 0.25) == 0.0
        assert locator.integral_I(spec, 0.25, dx=1) == 0.0


class TestLocate:
    def test_cubic_constants(self, cubic):
        _, loc, _ = cubic
        assert loc.t0 == pytest.approx(0.5, abs=1e-10)
        assert loc.C_I == pytest.approx(1.0 / 12.0, abs=1e-9)
        assert loc.gamma_bar == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_flipped_orientation_rejected(self):
        spec = problem.problem_from_dict(
            problem.REFERENCE_PROBLEMS["cubic-flipped"])
        with pytest.raises(locator.WrongOrientation):
            locator.locate_t0(spec)

    def test_degenerate_root_rejected(self):
        """I(x) = (x - 0.5)^3 / 6 changes sign at 0.5 with zero slope."""
        spec = problem.problem_from_dict(
            problem.REFERENCE_PROBLEMS["cubic-degenerate"])
        with pytest.raises(locator.DegenerateRoot, match="root not simple"):
            locator.locate_t0(spec)

    def test_no_sign_change(self):
        spec = variant(b="u*(u-0.75)*(u-1)", phi0="0.75")
        with pytest.raises(locator.NoSignChange):
            locator.locate_t0(spec)

    def test_root_off_center(self):
        spec = variant(b="u*(u-(0.9-0.5*x))*(u-1)", phi0="0.9-0.5*x")
        loc = locator.locate_t0(spec)
        assert loc.t0 == pytest.approx(0.8, abs=1e-10)
        assert loc.C_I == pytest.approx(1.0 / 12.0, abs=1e-9)

    def test_newton_agrees_with_plain_bisection(self, cubic, wavy):
        for spec, loc, _ in (cubic, wavy):
            lo, hi = 1e-3, 1.0 - 1e-3
            flo = locator.integral_I(spec, lo)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fmid = locator.integral_I(spec, mid)
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            assert 0.5 * (lo + hi) == pytest.approx(loc.t0, abs=1e-10)

    def test_area_slope_agrees_with_finite_difference(self, cubic, wavy):
        for spec, loc, _ in (cubic, wavy):
            h = 1e-5
            fd = -(locator.integral_I(spec, loc.t0 + h)
                   - locator.integral_I(spec, loc.t0 - h)) / (2 * h)
            assert fd == pytest.approx(loc.C_I, abs=1e-6)

    def test_tbar1_requires_matching(self):
        spec = problem.builtin_problem("cubic")
        loc = locator.locate_t0(spec)
        with pytest.raises(ValueError, match="matching"):
            loc.shift(spec.eps)

    def test_matching_fills_by_construction(self, cubic, capsys):
        """locate's tbar1 is the shift at its run's epsilon, here one
        other than the problem file's."""
        _, loc, _ = cubic
        assert loc.t1 == loc.C_II / loc.C_I
        assert loc.t2 == loc.C_III / loc.C_I
        eps = 0.03125
        assert cli.main(["locate", "--problem", "cubic", "--eps",
                         str(eps)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["t1"], out["t2"]) == (loc.t1, loc.t2)
        assert out["tbar1"] == loc.t1 + eps * loc.t2


def test_location_independent_of_scan_resolution(cubic, monkeypatch):
    spec, loc, _ = cubic
    monkeypatch.setattr(locator, "SCAN_POINTS", 97)
    alt = locator.locate_t0(spec)
    assert alt.t0 == pytest.approx(loc.t0, abs=1e-12)
