import math
from dataclasses import replace

import numpy as np
import pytest

from layerforge import corrections, problem, solver
from layerforge import expr as ex
from layerforge.grids import graded_half_grid, local_poly_derivative
from layerforge.quadrature import adaptive_gl
from layerforge.verify import P_SWEEP

SQ2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def cubic_aux(cubic_terms):
    aux, _ = cubic_terms
    return aux


def small_grid(aux):
    return graded_half_grid(aux.kink.xi_max, 2000, 1e-3)


def jump_solve(aux, psi, jm, jp):
    small = replace(aux, grid=small_grid(aux))
    return corrections.solve_jump(small, psi, jm, jp, "nu", small.branches())


class TestSolveJump:
    def test_zero_source_zero_jumps(self, cubic_aux):
        term = jump_solve(cubic_aux, lambda pt: 0.0 * pt.xi, 0.0, 0.0)
        assert np.all(term.val_neg == 0.0)
        assert np.all(term.val_pos == 0.0)
        assert term.phi_value == 0.0

    def test_homogeneous_solution_is_the_weight(self, cubic_aux):
        term = jump_solve(cubic_aux, lambda pt: 0.0 * pt.xi, 1.0, 0.0)
        chi = cubic_aux.at(term.xi_neg).chi
        assert np.allclose(term.val_neg, chi / term.chi0, rtol=0, atol=1e-14)
        assert np.all(term.val_pos == 0.0)
        assert term.phi_value == pytest.approx(term.dchi0 / term.chi0,
                                               abs=1e-14)

    def test_equal_jumps_cancel_in_phi(self, cubic_aux):
        term = jump_solve(cubic_aux, lambda pt: 0.0 * pt.xi, 0.7, 0.7)
        assert term.phi_value == pytest.approx(0.0, abs=1e-14)

    def test_sign_preservation(self, cubic_aux):
        def psi(pt):
            return pt.chi * (1.0 + pt.xi * pt.xi)

        term = jump_solve(cubic_aux, psi, 0.3, 0.1)
        assert np.all(term.val_neg >= 0.0)
        assert np.all(term.val_pos >= 0.0)

    def test_non_decaying_source_rejected(self, cubic_aux):
        with pytest.raises(corrections.NonDecayingSource):
            jump_solve(cubic_aux,
                       lambda pt: pt.chi * pt.xi ** 8, 0.0, 0.0)
        # polynomial growth below the sixth power is admissible
        jump_solve(cubic_aux,
                   lambda pt: pt.chi * (1.0 + pt.xi ** 4),
                   0.0, 0.0)

    def test_weight_underflow_rejected(self, underflow_data):
        # before the check, compute_matching returned t2 = nan
        spec = problem.problem_from_dict(underflow_data)
        with pytest.raises(corrections.WeightUnderflow,
                           match="plus branch of 'v1' underflows to 0 before "
                                 "the grid end at 87.2 "):
            corrections.locate_and_match(spec)

    def test_weight_underflow_line_keeps_to_the_grid_range(
            self, underflow_data, monkeypatch):
        """The error line names the grid end, which the range sets, and
        not the first zero node, which moves with the node count."""
        spec = problem.problem_from_dict(underflow_data)
        lines = []
        for n in (10000, 40000):
            monkeypatch.setattr(corrections, "GRID_N_PER_SIDE", n)
            with pytest.raises(corrections.WeightUnderflow) as err:
                corrections.locate_and_match(spec)
            lines.append(str(err.value))
        assert lines[0] == lines[1]

    def test_cubic_branches_keep_their_parity(self, cubic_terms):
        """On the symmetric cubic v1, v2 and z are odd and vstar is even;
        both branches are summed alike, so parity holds to roundoff."""
        _, terms = cubic_terms
        for label, parity in (("v1", -1), ("v2", -1), ("vstar", 1),
                              ("z", -1)):
            term = terms[label]
            assert np.array_equal(term.xi_neg[::-1], -term.xi_pos)
            gap = np.max(np.abs(term.val_neg[::-1] - parity * term.val_pos))
            assert gap <= 5e-12, label

    def test_jump_data_exact_at_table_ends(self, cubic_terms):
        _, terms = cubic_terms
        v2 = terms["v2"]
        assert v2.val_neg[-1] == v2.jump_minus
        assert v2.val_pos[0] == v2.jump_plus


def _subsample(xi, gap=0.018):
    """Node indices spaced at least `gap` apart.

    Second differences amplify table-value roundoff by 1/h^2, so the
    cross-check stencil lives on a thinned copy of the graded table where
    truncation and roundoff balance near their joint minimum.
    """
    keep = [0]
    for i in range(1, xi.size):
        if xi[i] - xi[keep[-1]] >= gap:
            keep.append(i)
    return np.asarray(keep)


class TestGoverningEquation:
    @pytest.mark.parametrize("label", ["v1", "v2", "vstar", "z"])
    def test_residual_at_interior_nodes(self, cubic_terms, label):
        """Second differences of the tables replay the jump equation."""
        aux, terms = cubic_terms
        term = terms[label]
        for xi, val, side in ((term.xi_neg, term.val_neg, -1),
                              (term.xi_pos, term.val_pos, 1)):
            keep = _subsample(xi)
            xs, vs = xi[keep], val[keep]
            probes = np.arange(2, xs.size - 2, 29)
            pt = aux.at(xs[probes], side)
            psi = term.psi_fn(pt)
            bs = pt.B(0, 1)
            for j, i in enumerate(probes):
                d2 = local_poly_derivative(xs, vs, int(i), order=2, width=5)
                resid = abs(-d2 + bs[j] * vs[i] - psi[j])
                assert resid <= 1e-6 * (1.0 + abs(psi[j]))


class TestBounds:
    def test_first_order_growth_bound(self, cubic_terms):
        """|v1| <= C (1 + xi^2) chi with a finite fitted constant."""
        aux, terms = cubic_terms
        v1 = terms["v1"]
        chi = aux.at(v1.xi_pos).chi
        ratio = np.abs(v1.val_pos) / ((1.0 + v1.xi_pos ** 2) * chi)
        assert np.max(ratio) < 10.0

    def test_vstar_nonnegative(self, cubic_terms, wavy_terms):
        for _, terms in (cubic_terms, wavy_terms):
            vs = terms["vstar"]
            assert np.all(vs.val_neg >= 0.0)
            assert np.all(vs.val_pos >= 0.0)

    def test_p_sensitivity_of_layer_component(self, actx):
        """The shift derivative of the layer component is the weight."""
        spec, loc, kk = actx.pipeline("cubic")
        h = 1e-5
        tbar1 = loc.shift(spec.eps)
        up = corrections.make_auxiliary(spec, kk, loc, p=h, tbar1=tbar1)
        dn = corrections.make_auxiliary(spec, kk, loc, p=-h, tbar1=tbar1)
        xi = np.linspace(-8.0, 8.0, 41)
        for side in (-1, 1):
            fd = (up.at(xi, side).v0 - dn.at(xi, side).v0) / (2 * h)
            chi = corrections.make_auxiliary(spec, kk, loc, p=0.0,
                                             tbar1=tbar1).at(xi).chi
            assert np.max(np.abs(fd - chi)) <= 1e-6


class TestPhi:
    def test_phi_by_quadrature_matches_table_derivatives(self, cubic_terms,
                                                         wavy_terms):
        for _, terms in (cubic_terms, wavy_terms):
            for term in terms.values():
                gap = abs(term.phi_value
                          - corrections.phi_from_tables(term))
                assert gap <= 1e-6

    def test_phi_v1_vanishes_for_symmetric_problem(self, cubic_terms):
        _, terms = cubic_terms
        assert abs(terms["v1"].phi_value) <= 1e-8

    def test_phi_v1_wavy_matches_direct_quadrature(self, wavy_terms, actx):
        """The first-order jump equals its moment-integral identity."""
        spec, loc, kk = actx.pipeline("cubic-wavy")
        aux, terms = wavy_terms
        t0 = loc.t0

        def integrand(xi):
            pt = aux.at(xi)
            return (xi * spec.b_val(t0, pt.V0, dx=1) * pt.chi)

        moment = adaptive_gl(integrand, -kk.xi_max, kk.xi_max, tol=1e-12)
        chi0 = float(np.atleast_1d(aux.at(np.array([0.0])).chi)[0])
        expected = (moment / chi0
                    - (spec.phi(1, t0, order=1) - spec.phi(2, t0, order=1)))
        assert terms["v1"].phi_value == pytest.approx(expected, abs=1e-6)

    def test_phi_vstar_closed_form(self, cubic_terms):
        """Jump of the nonnegative shape: minus the sum of squared layer
        jumps over twice the anchor weight (equals -sqrt(2) on the cubic)."""
        aux, terms = cubic_terms
        vs = terms["vstar"]
        v0m = float(np.atleast_1d(aux.at(0.0, -1).v0)[0])
        v0p = float(np.atleast_1d(aux.at(0.0, 1).v0)[0])
        closed = -(v0m ** 2 + v0p ** 2) / (2.0 * vs.chi0)
        assert vs.phi_value == pytest.approx(closed, abs=1e-6)
        assert vs.phi_value == pytest.approx(-SQ2, abs=1e-6)

    @pytest.fixture(scope="class")
    def cubic_p_sweep(self, cubic):
        """(s, V, Phi[v1], Phi[v*]) on the cubic at each p of P_SWEEP,
        with s = p - tbar1 the profile's argument at the layer point and
        V = 1 / (1 + e^{-s/sqrt 2}) the profile there."""
        spec, loc, kk = cubic
        rows = []
        for p in P_SWEEP:
            aux = corrections.make_auxiliary(spec, kk, loc, p,
                                             loc.shift(spec.eps))
            points = aux.branches()
            s = p - aux.tbar1
            rows.append((s, 1.0 / (1.0 + math.exp(-s / SQ2)),
                         corrections.build_v1(aux, points).phi_value,
                         corrections.build_vstar(aux, points).phi_value))
        return rows

    def test_phi_vstar_closed_form_over_the_p_sweep(self, cubic_p_sweep):
        """ROADMAP item 12's closed form on the cubic,
        Phi[v*](p) = -sqrt 2 (V^2 + (1-V)^2) / (2 V (1-V)); a plain
        trapezoid on 40 000 nodes misses it by 7.95e-9."""
        for _, V, _, phi in cubic_p_sweep:
            closed = -SQ2 * (V * V + (1.0 - V) ** 2) / (2.0 * V * (1.0 - V))
            assert abs(phi - closed) <= 1e-12

    def test_phi_v1_closed_form_over_the_p_sweep(self, cubic_p_sweep):
        """ROADMAP item 12's closed form on the cubic,
        Phi[v1](p) = sqrt 2 s / (12 V (1-V)); a plain trapezoid on
        40 000 nodes misses it by 7.1e-12."""
        for s, V, phi, _ in cubic_p_sweep:
            assert abs(phi - SQ2 * s / (12.0 * V * (1.0 - V))) <= 1e-13

    def test_phi_z_vanishes(self, cubic_terms, wavy_terms):
        for _, terms in (cubic_terms, wavy_terms):
            assert abs(terms["z"].phi_value) <= 1e-8


class TestV2:
    def test_cubic_jumps_vanish(self, cubic_terms):
        _, terms = cubic_terms
        assert terms["v2"].jump_minus == 0.0
        assert terms["v2"].jump_plus == 0.0

    def test_decay_rate_within_tight_margin(self, cubic_terms, wavy_terms):
        from layerforge.verify import term_decay_rate
        for aux, terms in (cubic_terms, wavy_terms):
            rate = term_decay_rate(terms["v2"])
            assert rate >= aux.kink.gamma_bar - 0.05

    def test_wavy_jumps_cancel_smooth_correction(self, wavy_terms):
        aux, terms = wavy_terms
        v2 = terms["v2"]
        u2 = aux.loc.u2_side
        assert v2.jump_minus == pytest.approx(-u2[0], abs=1e-14)
        assert v2.jump_plus == pytest.approx(-u2[1], abs=1e-14)
        # one-sided smooth correction plus layer jump is continuous
        left = u2[0] + v2.value(0.0, side=-1)
        right = u2[1] + v2.value(0.0, side=1)
        assert abs(left - right) <= 1e-10


class TestHermiteTables:
    """Each branch tabulates nu, nu' and nu'' at its nodes, and `value`
    interpolates them by quintic Hermite."""

    def test_value_at_the_nodes_is_the_table(self, cubic_terms, wavy_terms):
        for _, terms in (cubic_terms, wavy_terms):
            for term in terms.values():
                assert np.array_equal(term.value(term.xi_neg, -1),
                                      term.val_neg)
                assert np.array_equal(term.value(term.xi_pos, 1),
                                      term.val_pos)

    @pytest.mark.parametrize("name", ["cubic", "cubic-wavy"])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_homogeneous_term_is_the_weight_between_nodes(self, actx, name,
                                                          side):
        """psi = 0 with a unit jump on one side is chi / chi0 there, also
        past the profile table, where the weight's slope is the tail's
        -mu chi (b(t0, V0) has lost the decay once V0 rounds onto the
        root).  The cell across the profile's table end is left out: the
        looked-up weight itself jumps there by up to 2e-8 relative."""
        aux, _ = actx.terms(name)
        term = corrections.solve_jump(aux, lambda pt: 0.0 * pt.xi,
                                      float(side < 0), float(side > 0), "nu",
                                      aux.branches())
        s = term.pos[0]
        seam = side * (aux.kink.ends[side > 0] + aux.tbar1 - aux.p)
        keep = (s[1:] < 60.0) & ~((s[:-1] < seam) & (seam < s[1:]))
        xi = side * 0.5 * (s[:-1] + s[1:])[keep]
        exact = aux.at(xi, side).chi / term.chi0
        assert np.max(np.abs(term.value(xi, side) / exact - 1.0)) <= 1e-8

    def test_node_slopes_carry_the_jump(self, cubic_terms, wavy_terms):
        """nu'(0-) - nu'(0+) from the stored s-derivatives (nu' = -dnu/ds on
        the negative branch) is Phi[nu], to 1e-15 of the one-sided slopes:
        on the symmetric cubic Phi[v1] and Phi[v2] are roundoff."""
        for _, terms in (cubic_terms, wavy_terms):
            for term in terms.values():
                left, right = -term.neg[2][0], term.pos[2][0]
                gap = abs(left - right - term.phi_value)
                assert gap <= 1e-15 * (abs(left) + abs(right)), term.label


class TestBranchRule:
    def test_sides_of(self):
        xi = np.array([-2.0, -0.0, 0.0, 3.0])
        assert list(corrections.sides_of(xi)) == [-1, 1, 1, 1]
        assert list(corrections.sides_of(xi, -1)) == [-1, -1, -1, -1]

    def test_value_with_mixed_sides_matches_each_branch(self, cubic_terms):
        _, terms = cubic_terms
        xi = np.array([-3.0, 0.0, 0.0, 2.5, -1e3, 1e3, 0.7])
        sides = np.array([-1, -1, 1, -1, 1, -1, 1])
        for term in terms.values():
            mixed = term.value(xi, sides)
            for s in (-1, 1):
                m = sides == s
                assert np.array_equal(mixed[m], term.value(xi[m], s))

    def test_one_grid_per_configuration(self, cubic, monkeypatch):
        spec, loc, kk = cubic
        calls = []
        grid = corrections.graded_half_grid

        def counted(*args):
            calls.append(args)
            return grid(*args)

        monkeypatch.setattr(corrections, "graded_half_grid", counted)
        corrections.build_terms(corrections.make_auxiliary(
            spec, kk, loc, 0.0, loc.shift(spec.eps)))
        assert len(calls) == 1


class TestLayerPoint:
    @pytest.mark.parametrize("name", ["cubic", "cubic-wavy", "curved"])
    def test_chain_rule_matches_symbolic_partials(self, actx, request, name):
        """B(nx, ns) at the layer point is the partial of the symbolic
        B_k(x, s) = b(x, phi_k(x) + s) at (t0, v0) on each side, to 1e-12
        of the largest partial on the probe grid (some vanish exactly).
        Only the curved problem's roots have a slope at t0, so only it
        checks the chain rule's du0 terms."""
        spec, loc, kk = (request.getfixturevalue(name) if name == "curved"
                         else actx.pipeline(name))
        aux = corrections.make_auxiliary(spec, kk, loc, p=0.003,
                                         tbar1=loc.shift(spec.eps))
        xi = np.linspace(-8.0, 8.0, 33)
        orders = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
        for k, side in ((1, -1), (2, 1)):
            shifted = ex.substitute(spec.b, "u",
                                    ex.add(getattr(spec, f"phi{k}"),
                                           ex.Var("u")))
            pt = aux.at(xi, side)
            exact = {}
            for nx, ns in orders:
                tree = shifted
                for var, n in (("x", nx), ("u", ns)):
                    for _ in range(n):
                        tree = ex.differentiate(tree, var)
                exact[nx, ns] = ex.evaluate(tree, loc.t0, pt.v0)
            scale = max(np.max(np.abs(v)) for v in exact.values())
            for nx, ns in orders:
                gap = np.max(np.abs(pt.B(nx, ns) - exact[nx, ns]))
                assert gap <= 1e-12 * scale, (side, nx, ns)


class TestMatching:
    def test_symmetry_kills_first_moment(self, cubic):
        _, loc, _ = cubic
        assert abs(loc.t1) <= 1e-8
        assert abs(loc.C_II) <= 1e-8

    def test_oracle_comparison_against_fd(self, cubic_terms, wavy_terms):
        for aux, terms in (cubic_terms, wavy_terms):
            for term in terms.values():
                (xn, fdn), (xp, fdp) = solver.solve_jump_fd_numerov(
                    lambda xi: aux.at(xi).B(0, 1),
                    lambda xi, side: term.psi_fn(aux.at(xi, side)),
                    term.jump_minus, term.jump_plus)
                gap = max(np.max(np.abs(fdn - term.value(xn, side=-1))),
                          np.max(np.abs(fdp - term.value(xp, side=1))))
                assert gap <= 1e-6
