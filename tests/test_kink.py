import math

import numpy as np
import pytest

from layerforge import corrections, kernels, kink, locator, problem
from layerforge.grids import local_poly_derivative

SQ2 = math.sqrt(2.0)


def logistic(xi, rate=1.0 / SQ2):
    return 1.0 / (1.0 + np.exp(-rate * np.asarray(xi, dtype=float)))


#: a flat instance of the generated family b = (1 + a x^2) u (u - phi0) (u - 1)
#: with phi0 = 1/2 - s (x - t0), here t0 = 0.6, s = 0.5, a = 1; its profile
#: is the logistic of rate sqrt((1 + a t0^2) / 2) with unit tail amplitudes
FLAT = {"name": "flat", "b": "(1+1.0*x^2)*u*(u-(0.5-0.5*(x-0.6)))*(u-1)",
        "phi0": "(0.5-0.5*(x-0.6))", "phi1": "0", "phi2": "1",
        "g0": 0.0, "g1": 1.0, "epsilon": 0.01}

#: a quintic whose extra reduced roots between the outer ones make the
#: potential dip below 0
DIPPING = dict(problem.BUILTIN_PROBLEMS["cubic"],
               b="u*(u-0.05)*(u-0.45)*(u-(0.9-0.5*x))*(u-1)",
               phi0="0.9-0.5*x")


class TestBuild:
    def test_matches_logistic_on_probe_grid(self, cubic):
        _, _, kk = cubic
        probe = np.linspace(-10.0, 10.0, 4001)
        assert np.max(np.abs(kk.value(probe) - logistic(probe))) <= 1e-8

    def test_wavy_is_shifted_logistic(self, wavy):
        _, _, kk = wavy
        probe = np.linspace(-10.0, 10.0, 2001)
        assert np.max(np.abs(kk.value(probe) - 0.1 - logistic(probe))) <= 1e-8

    def test_anchor_slope(self, cubic):
        _, _, kk = cubic
        assert kk.chi_at_zero == pytest.approx(1.0 / (4.0 * SQ2), abs=1e-9)

    def test_table_is_strictly_increasing(self, cubic, wavy):
        for _, _, kk in (cubic, wavy):
            assert np.all(np.diff(kk.v_table) > 0.0)
            dense = np.linspace(-kk.xi_max, kk.xi_max, 100001)
            assert np.all(np.diff(kk.value(dense)) > 0.0)

    def test_limits_bracket_table(self, cubic):
        _, _, kk = cubic
        assert kk.value(-kk.xi_max) >= kk.phi1_t0
        assert kk.value(kk.xi_max) <= kk.phi2_t0
        assert kk.value(-200.0) == pytest.approx(kk.phi1_t0, abs=1e-12)
        assert kk.value(200.0) == pytest.approx(kk.phi2_t0, abs=1e-12)

    def test_weight_ties_to_potential_at_every_node(self, cubic, wavy):
        for _, _, kk in (cubic, wavy):
            w = np.sqrt(np.maximum(2.0 * kk.potential.w(kk.v_table), 0.0))
            assert np.max(np.abs(kk.chi_table - w)) <= 1e-10

    def test_potential_vanishes_at_upper_root(self, cubic):
        _, _, kk = cubic
        # the located layer point drives the full area to quadrature level
        assert abs(kk.potential.prefix[-1]) <= 1e-12

    def test_potential_positive_inside(self, cubic):
        _, _, kk = cubic
        span = kk.phi2_t0 - kk.phi1_t0
        v = np.linspace(kk.phi1_t0 + 1e-4 * span, kk.phi2_t0 - 1e-4 * span, 999)
        assert np.min(kk.potential.w(v)) > 0.0

    def test_node_count_and_range(self, cubic):
        _, loc, kk = cubic
        assert kk.xi.size >= 2000
        assert kk.xi_max == pytest.approx(20.0 / kk.gamma_bar)
        assert kk.ends == (-kk.xi_max, kk.xi_max)

    def test_table_is_the_quadrature_nodes(self, cubic, wavy):
        for spec, loc, kk in (cubic, wavy):
            (_, up), (_, lo) = _sides(spec, loc)
            assert np.array_equal(kk.xi, np.concatenate([-lo[0][:0:-1],
                                                         up[0]]))
            for table, k in ((kk.v_table, 1), (kk.chi_table, 2)):
                assert np.array_equal(table, np.concatenate([lo[k][:0:-1],
                                                             up[k]]))


class TestUnequalRates:
    @pytest.fixture(scope="class")
    def unequal(self, underflow_data):
        """Bistable with tail rates 0.94 and 10.8: the upper side's nodes
        reach SWITCH_EPS from the root at xi = 2.08, well inside
        xi_max = 20 / 0.94."""
        spec = problem.problem_from_dict(underflow_data)
        loc = locator.locate_t0(spec)
        return spec, loc, kink.build_kink(spec, loc)

    def test_builds_with_the_node_end_above(self, unequal):
        _, _, kk = unequal
        assert kk.mu_plus > 10.0 * kk.mu_minus
        lo, hi = kk.ends
        assert lo == -kk.xi_max
        assert hi == kk.xi[-1] == pytest.approx(2.08, abs=0.01)
        assert np.all(kk.chi_table > 0.0)

    def test_table_solves_the_profile_equation(self, unequal):
        """V'' = b(t0, V) at the nodes inside the ends, by local polynomial
        second derivatives of the table, as for the cubic."""
        spec, loc, kk = unequal
        xi, v = kk.xi, kk.v_table
        lo, hi = kk.ends
        inside = np.nonzero((xi >= lo) & (xi <= hi))[0][2:-2]
        for i in inside[::5]:
            d2 = local_poly_derivative(xi, v, int(i), order=2, width=5)
            target = spec.b_val(loc.t0, v[i])
            gap = np.max(np.abs(np.diff(xi[i - 2:i + 3])))
            assert abs(d2 - target) <= 1e-8 + 0.5 * gap ** 2


class TestTailAmplitudes:
    def test_cubic_amplitudes_are_one(self, cubic):
        _, _, kk = cubic
        assert abs(kk.A_minus - 1.0) <= 1e-10
        assert abs(kk.A_plus - 1.0) <= 1e-10

    def test_wavy_amplitudes_are_one(self, wavy):
        # the roots 0.1 and 1.1 are not dyadic, so the points next to them
        # round; the transport must still recover the shifted logistic's
        _, _, kk = wavy
        assert abs(kk.A_minus - 1.0) <= 1e-10
        assert abs(kk.A_plus - 1.0) <= 1e-10

    def test_flat_generated_problem(self):
        spec = problem.problem_from_dict(FLAT)
        loc = locator.locate_t0(spec)
        kk = kink.build_kink(spec, loc)
        rate = math.sqrt((1.0 + 0.6 ** 2) / 2.0)
        assert abs(kk.A_plus - 1.0) <= 1e-9
        probe = np.linspace(-10.0, 10.0, 4001)
        assert np.max(np.abs(kk.value(probe) - logistic(probe, rate))) <= 1e-10


def _sides(spec, loc):
    """integrate_kink's result toward each root, with its target."""
    pot = kink.build_potential(spec, loc)
    anchor = float(spec.phi(0, loc.t0))
    return [(target, kernels.integrate_kink(pot, anchor, target,
                                            kink.SWITCH_EPS))
            for target in (pot.edges[-1], pot.edges[0])]


class TestPotentialBranches:
    def test_taylor_meets_panels_at_both_roots(self, cubic, wavy):
        """Across _TAYLOR_DIST, the Taylor branch and the panel branch give
        the same W / d^2 (W itself vanishes quadratically there)."""
        for _, _, kk in (cubic, wavy):
            pot = kk.potential
            for root, inward in ((pot.edges[0], 1.0), (pot.edges[-1], -1.0)):
                v = root + inward * kink._TAYLOR_DIST * (
                    1.0 + np.arange(-3, 4) * 1e-9)
                d = v - root
                taylor = np.abs(d) < kink._TAYLOR_DIST
                assert taylor.any() and not taylor.all()
                scaled = pot.w(v) / (d * d)
                # the nearest point on each side of the switch
                inner = scaled[taylor][np.argmax(np.abs(d[taylor]))]
                outer = scaled[~taylor][np.argmin(np.abs(d[~taylor]))]
                assert abs(inner - outer) <= 1e-10 * abs(outer)


class TestTableAndTails:
    def test_beyond_the_table_are_the_closed_tails(self, cubic, wavy):
        for _, _, kk in (cubic, wavy):
            s = kk.xi_max * np.array([1.01, 1.5, 3.0])
            lo = kk.A_minus * np.exp(-kk.mu_minus * s)
            hi = kk.A_plus * np.exp(-kk.mu_plus * s)
            np.testing.assert_allclose(kk.value(-s), kk.phi1_t0 + lo,
                                       rtol=1e-15)
            np.testing.assert_allclose(kk.value(s), kk.phi2_t0 - hi,
                                       rtol=1e-15)
            np.testing.assert_allclose(kk.slope(-s), kk.mu_minus * lo,
                                       rtol=1e-14)
            np.testing.assert_allclose(kk.slope(s), kk.mu_plus * hi,
                                       rtol=1e-14)

    def test_continuous_at_the_table_ends(self, cubic, wavy):
        """Across each end the value moves by at most 1e-7 of the root
        distance plus one rounding of the root (2.2e-16 at cubic-wavy's
        root 1.1 is 1.1e-7 of its distance 2.1e-9), and the slope by at
        most 1e-7 relative."""
        for _, _, kk in (cubic, wavy):
            for end, root in zip(kk.ends, (kk.phi1_t0, kk.phi2_t0)):
                beyond = np.nextafter(end, 2.0 * end)
                dist = abs(kk.value(beyond) - root)
                assert (abs(kk.value(end) - kk.value(beyond))
                        <= 1e-7 * dist + np.spacing(root))
                assert (abs(kk.slope(end) - kk.slope(beyond))
                        <= 1e-7 * kk.slope(beyond))

    def test_slope_matches_the_logistic_slope(self, cubic):
        _, _, kk = cubic
        xi = np.linspace(-kk.xi_max, kk.xi_max, 200001)
        rate = 1.0 / SQ2
        e = np.exp(-rate * np.abs(xi))
        exact = rate * e / (1.0 + e) ** 2
        assert np.max(np.abs(kk.slope(xi) / exact - 1.0)) <= 2e-7

    def test_nan_argument_gives_nan(self, cubic):
        _, _, kk = cubic
        assert math.isnan(kk.value(float("nan")))
        assert math.isnan(kk.slope(float("nan")))
        out = kk.value(np.array([np.nan, 0.0, 1e3]))
        assert math.isnan(out[0]) and np.all(np.isfinite(out[1:]))
        out = kk.slope(np.array([-1e3, np.nan]))
        assert np.isfinite(out[0]) and math.isnan(out[1])


class TestIntegrateKink:
    def test_node_contract(self, cubic, wavy):
        for spec, loc, _ in (cubic, wavy):
            anchor = float(spec.phi(0, loc.t0))
            for target, (s, v, chi, b, count, status) in _sides(spec, loc):
                assert status == 0
                assert count == s.size == v.size == chi.size == b.size
                assert s[0] == 0.0 and v[0] == anchor
                assert np.all(np.diff(s) > 0.0)
                # within switch_eps, up to the rounding of the node itself
                assert abs(target - v[-1]) <= (kink.SWITCH_EPS
                                               + np.spacing(abs(target)))

    def test_nodes_lie_on_the_logistic(self, cubic):
        spec, loc, _ = cubic
        for target, (s, v, chi, b, _, _) in _sides(spec, loc):
            xi = s if target > 0.5 else -s
            assert np.max(np.abs(v - logistic(xi))) <= 1e-12
            assert np.max(np.abs(b - spec.b_val(loc.t0, v))) <= 1e-15

    def test_nonpositive_potential_sets_status(self):
        spec = problem.problem_from_dict(DIPPING)
        loc = locator.locate_t0(spec)
        statuses = [result[5] for _, result in _sides(spec, loc)]
        assert 1 in statuses


class TestProfileODE:
    def test_potential_derivative_is_reaction(self, cubic):
        """W'(v) = b(t0, v), checked by centered differences of W."""
        spec, loc, kk = cubic
        v = kk.v_table[(kk.v_table > 0.01) & (kk.v_table < 0.99)]
        h = 1e-6
        wprime = (kk.potential.w(v + h) - kk.potential.w(v - h)) / (2 * h)
        resid = np.abs(wprime - spec.b_val(loc.t0, v))
        assert np.max(resid) <= 1e-8

    def test_table_second_difference_cross_check(self, cubic):
        """Second differences of the profile table against the reaction.

        The finite-difference truncation scales with the local spacing
        squared, so the tolerance carries that factor on top of the 1e-8
        analytic floor.
        """
        spec, loc, kk = cubic
        xi, v = kk.xi, kk.v_table
        idx = np.nonzero(np.abs(xi) <= 10.0)[0][::25]
        h = np.max(np.abs(np.diff(xi)))
        for i in idx:
            d2 = local_poly_derivative(xi, v, int(i), order=2, width=5)
            target = spec.b_val(loc.t0, v[i])
            gap = np.max(np.abs(np.diff(xi[max(0, i - 2):i + 3])))
            assert abs(d2 - target) <= 1e-8 + 0.5 * gap ** 2

    def test_tail_rates_match_linearization(self, cubic):
        spec, loc, kk = cubic
        assert kk.mu_minus == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert kk.mu_plus == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_weight_bounded_by_exponential_envelope(self, cubic):
        """The weight decays at least like exp(-(rate - lambda)|xi|)."""
        _, _, kk = cubic
        lam = 0.05
        mask = np.abs(kk.xi) >= 1.0
        envelope = np.exp(-(kk.gamma_bar - lam) * np.abs(kk.xi[mask]))
        C = 1.05 * np.max(kk.chi_table[mask][::2] / envelope[::2])
        assert np.all(kk.chi_table[mask][1::2] <= C * envelope[1::2])

    def test_profile_weight_sandwich(self, cubic):
        """The distance to each root is comparable to the weight."""
        _, _, kk = cubic
        neg = kk.xi < -0.5
        ratio = (kk.v_table[neg] - kk.phi1_t0) / kk.chi_table[neg]
        c_lo = 0.95 * ratio.min()
        c_hi = 1.05 * ratio.max()
        assert c_lo > 0.0
        assert np.all((kk.v_table[neg] - kk.phi1_t0) >= c_lo * kk.chi_table[neg])
        assert np.all((kk.v_table[neg] - kk.phi1_t0) <= c_hi * kk.chi_table[neg])
        pos = kk.xi > 0.5
        ratio = (kk.phi2_t0 - kk.v_table[pos]) / kk.chi_table[pos]
        assert ratio.min() > 0.0


class TestEvaluators:
    def test_anchor_at_zero_shift(self, cubic):
        spec, loc, kk = cubic
        aux = corrections.make_auxiliary(spec, kk, loc, 0.0, tbar1=0.0)
        assert aux.at(0.0).V0 == pytest.approx(spec.phi(0, loc.t0), abs=1e-12)

    def test_logistic_inversion_point(self, cubic):
        spec, loc, kk = cubic
        aux = corrections.make_auxiliary(spec, kk, loc, 0.0, tbar1=0.0)
        assert aux.at(SQ2 * math.log(3.0)).V0 == pytest.approx(0.75, abs=1e-9)

    def test_shift_identity(self, cubic):
        spec, loc, kk = cubic
        for delta in (0.03, -0.02):
            a = corrections.make_auxiliary(spec, kk, loc, 0.05).at(1.3).V0
            b = corrections.make_auxiliary(spec, kk, loc,
                                           0.05 - delta).at(1.3 + delta).V0
            assert a == pytest.approx(b, abs=1e-12)

    def test_shift_cap(self, cubic):
        spec, loc, kk = cubic
        with pytest.raises(ValueError):
            corrections.make_auxiliary(spec, kk, loc, 0.2, tbar1=0.0)

    def test_shift_cap_rejects_nan(self, cubic):
        spec, loc, kk = cubic
        with pytest.raises(ValueError):
            corrections.make_auxiliary(spec, kk, loc, float("nan"), tbar1=0.0)

    def test_chi_derivative_identities(self, cubic):
        spec, loc, kk = cubic
        aux = corrections.make_auxiliary(spec, kk, loc, 0.0, tbar1=0.0)
        # extremal slope at the anchor
        assert aux.at(0.0).B() == pytest.approx(0.0, abs=1e-12)
        # curvature of the weight at the anchor: chi'' = B_s chi
        expected = -0.25 / (4.0 * SQ2)
        anchor = aux.at(0.0)
        assert anchor.B(0, 1) * anchor.chi == pytest.approx(expected, abs=1e-9)
        # chi''/chi = B_s approaches the squared tail rate
        assert aux.at(18.0).B(0, 1) == pytest.approx(kk.gamma_bar ** 2, rel=1e-4)


class TestFailureModes:
    def test_anchor_out_of_range(self):
        data = dict(problem.BUILTIN_PROBLEMS["cubic"], phi0="2")
        spec = problem.problem_from_dict(data)
        loc = locator.locate_t0(spec)
        with pytest.raises(kink.AnchorOutOfRange):
            kink.build_kink(spec, loc)

    def test_negative_potential(self):
        spec = problem.problem_from_dict(DIPPING)
        loc = locator.locate_t0(spec)
        with pytest.raises(kink.PotentialNegative):
            kink.build_kink(spec, loc)
