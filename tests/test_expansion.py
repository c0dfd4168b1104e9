import math
from dataclasses import replace

import numpy as np
import pytest

from layerforge import corrections, expansion, kink, problem, solver
from layerforge.grids import graded_x_grid

SQ2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def cubic_e(cubic):
    spec, loc, kk = cubic
    return expansion.build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)


class TestAssembly:
    def test_continuity_at_layer_point(self, cubic_e, cubic):
        _, loc, _ = cubic
        left = cubic_e.u_as(loc.t0, side=-1)
        right = cubic_e.u_as(loc.t0, side=1)
        assert abs(left - right) <= 1e-10

    def test_value_at_layer_point_is_shifted_profile(self, cubic_e, cubic):
        _, loc, kk = cubic
        shift = loc.t1 + cubic_e.eps * loc.t2
        assert cubic_e.u_as(loc.t0) == pytest.approx(kk.value(-shift),
                                                     abs=1e-10)

    def test_boundary_values_up_to_tails(self, cubic_e, cubic):
        spec, _, _ = cubic
        assert abs(cubic_e.u_as(0.0) - spec.g0) <= 1e-6
        assert abs(cubic_e.u_as(1.0) - spec.g1) <= 1e-6

    def test_wavy_continuity(self, wavy):
        spec, loc, kk = wavy
        e = expansion.build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
        assert abs(e.u_as(loc.t0, side=-1) - e.u_as(loc.t0, side=1)) <= 1e-10

    def test_p_shift_first_order(self, cubic):
        spec, loc, kk = cubic
        e0 = expansion.build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
        ep = expansion.build_expansion(spec, p=1e-4, eps=1e-2, loc=loc,
                                       kink=kk)
        gap = ep.u_as(loc.t0) - e0.u_as(loc.t0)
        assert gap == pytest.approx(kk.chi_at_zero * 1e-4, rel=1e-2)

    def test_smooth_correction_values(self, wavy):
        spec, loc, kk = wavy
        e = expansion.build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
        # u2 = u0'' / b_u(x, u0) one-sided at the layer point, as the
        # expansion reads it and as the smooth pass gives it there
        expected = spec.phi(1, loc.t0, order=2) / spec.b_val(
            loc.t0, spec.phi(1, loc.t0), du=1)
        assert e.aux.loc.u2_side[0] == pytest.approx(expected, rel=1e-12)
        _, (u2,) = spec.outer(1, np.array([loc.t0]))
        assert u2[0] == pytest.approx(expected, rel=1e-12)


class TestBeta:
    def test_beta_reduces_to_expansion(self, cubic_e):
        pe = expansion.build_perturbed(cubic_e, pprime=0.0, hhat=0.0)
        xs = np.linspace(0.01, 0.99, 53)
        assert np.allclose(pe.beta(xs), np.atleast_1d(cubic_e.u_as(xs)),
                           rtol=0, atol=1e-14)

    def test_far_field_offset(self, cubic_e):
        pe = expansion.build_perturbed(cubic_e, pprime=0.01, hhat=0.0)
        for x in (0.01, 0.99):
            gap = pe.beta(x) - cubic_e.u_as(x)
            assert gap == pytest.approx(0.01 * pe.C0, abs=1e-8)

    def test_bracketing_order(self, cubic):
        spec, loc, kk = cubic
        eps, p = 1e-2, 0.01
        up = expansion.build_perturbed(
            expansion.build_expansion(spec, p=p, eps=eps, loc=loc, kink=kk),
            pprime=eps * p, hhat=math.sqrt(eps))
        dn = expansion.build_perturbed(
            expansion.build_expansion(spec, p=-p, eps=eps, loc=loc, kink=kk),
            pprime=-eps * p, hhat=math.sqrt(eps))
        xs = graded_x_grid(loc.t0, eps, 1000)
        assert np.min(np.atleast_1d(up.beta(xs))
                      - np.atleast_1d(dn.beta(xs))) >= -1e-12

    def test_parameter_caps(self, cubic_e):
        with pytest.raises(ValueError, match="pprime"):
            expansion.build_perturbed(cubic_e, pprime=0.2, hhat=0.0)
        with pytest.raises(ValueError, match="hhat"):
            expansion.build_perturbed(cubic_e, pprime=0.0, hhat=1.0)
        with pytest.raises(ValueError, match="pprime"):
            expansion.build_perturbed(cubic_e, pprime=math.nan, hhat=0.0)
        with pytest.raises(ValueError, match="hhat"):
            expansion.build_perturbed(cubic_e, pprime=0.0, hhat=math.nan)

    def test_phi_beta_decomposition(self, cubic_e):
        pe = expansion.build_perturbed(cubic_e, pprime=0.003, hhat=0.05)
        expected = (cubic_e.phi_u_as() + 0.003 * pe.vstar.phi_value
                    + 0.05 ** 2 * pe.z.phi_value)
        assert pe.phi_beta() == pytest.approx(expected, abs=1e-15)

    def test_closeness_to_unshifted_expansion(self, cubic):
        """|beta(+-p) - u_as(0)| within a fitted layer envelope plus a
        uniform first-order term."""
        spec, loc, kk = cubic
        eps, p = 1e-3, 0.01
        e0 = expansion.build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kk)
        lam = 0.05
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(0.0, 1.0, 800))
        xi = (xs - loc.t0) / eps
        env = (p + eps) * np.exp(-(kk.gamma_bar - lam) * np.abs(xi)) \
            + eps * p
        for sign in (1.0, -1.0):
            pe = expansion.build_perturbed(
                expansion.build_expansion(spec, p=sign * p, eps=eps, loc=loc,
                                          kink=kk),
                pprime=sign * eps * p, hhat=math.sqrt(eps))
            diff = np.abs(np.atleast_1d(pe.beta(xs))
                          - np.atleast_1d(e0.u_as(xs)))
            ratio = diff / env
            half = xs.size // 2
            C = 1.05 * np.max(ratio[:half])
            assert np.all(ratio[half:] <= C)


class TestSharedAssembly:
    """beta and f_beta_centered are the expansion's own value and defect
    with two more weighted layer terms and an offset."""

    def test_unperturbed_defect_is_the_residual(self, wavy):
        spec, loc, kk = wavy
        e = expansion.build_expansion(spec, p=0.003, eps=1e-2, loc=loc,
                                      kink=kk)
        pe = expansion.build_perturbed(e, pprime=0.0, hhat=0.0)
        xs = graded_x_grid(loc.t0, e.eps, 1000)
        assert np.array_equal(pe.f_beta_centered(xs), e.residual(xs))

    @pytest.mark.parametrize("name", ["cubic", "cubic-wavy"])
    def test_beta_adds_the_perturbation_terms(self, actx, name):
        """beta - u_as = p' (v* + C0) + hhat^2 z to 4 ulp of the solution
        scale: the layer sum adds O(1) summands that cancel where beta is
        small, so a per-point ulp would not bound it."""
        spec, loc, kk = actx.pipeline(name)
        eps, p = 1e-2, -0.01
        e = expansion.build_expansion(spec, p=p, eps=eps, loc=loc, kink=kk)
        pe = expansion.build_perturbed(e, pprime=eps * p, hhat=math.sqrt(eps))
        xs = graded_x_grid(loc.t0, eps, 2000)
        xi = e.xi_of(xs)
        u_as = e.u_as(xs)
        extra = (pe.pprime * (pe.vstar.value(xi) + pe.C0)
                 + pe.hhat ** 2 * pe.z.value(xi))
        ulp = np.spacing(np.max(np.abs(u_as)))
        assert np.max(np.abs(pe.beta(xs) - u_as - extra)) <= 4.0 * ulp

    def test_each_layer_term_is_evaluated_once(self, wavy, monkeypatch):
        """v1, v2 (and v*, z) once per call: v2's source in the defect
        reads the value of v1 the layer point already holds."""
        spec, loc, kk = wavy
        eps = 2.0 ** -6
        e = expansion.build_expansion(spec, p=0.003, eps=eps, loc=loc,
                                      kink=kk)
        pe = expansion.build_perturbed(e, pprime=eps * 0.003,
                                       hhat=math.sqrt(eps))
        xs = graded_x_grid(loc.t0, eps, 500)
        value = corrections.CorrectionTerm.value
        calls = []

        def counted(term, *args, **kwargs):
            calls.append(term.label)
            return value(term, *args, **kwargs)

        monkeypatch.setattr(corrections.CorrectionTerm, "value", counted)
        counts = {}
        for fn in (e.u_as, e.residual, pe.beta, pe.f_beta_centered):
            calls.clear()
            fn(xs)
            counts[fn.__name__] = len(calls)
        assert counts == {"u_as": 2, "residual": 2, "beta": 4,
                          "f_beta_centered": 4}

    def test_one_branch_pair_per_build(self, wavy, monkeypatch):
        """build_expansion (v1, v2) and build_perturbed (v*, z) each look
        the profile up once per branch on the correction grid, and v2's
        source reads v1's node values instead of evaluating v1."""
        spec, loc, kk = wavy
        eps = 2.0 ** -6
        grid_size = corrections.GRID_N_PER_SIDE + 1
        calls = []

        def counting(name, original, on_grid):
            def counted(self, *args, **kwargs):
                if not on_grid or np.size(args[0]) == grid_size:
                    calls.append(name)
                return original(self, *args, **kwargs)
            return counted

        for cls, name, on_grid in ((kink.KinkProfile, "value", True),
                                   (kink.KinkProfile, "slope", True),
                                   (corrections.CorrectionTerm, "value",
                                    False)):
            monkeypatch.setattr(cls, name, counting(
                f"{cls.__name__}.{name}", getattr(cls, name), on_grid))
        e = expansion.build_expansion(spec, p=0.003, eps=eps, loc=loc,
                                      kink=kk)
        built = sorted(calls)
        calls.clear()
        expansion.build_perturbed(e, pprime=eps * 0.003, hhat=math.sqrt(eps))
        twice_each = ["KinkProfile.slope"] * 2 + ["KinkProfile.value"] * 2
        assert built == twice_each
        assert sorted(calls) == twice_each

    def test_one_layer_point_per_call(self, wavy, monkeypatch):
        """Each call looks the profile up once.  The defect reads the six b
        partials at the layer point (x = t0) once each, plus b(x, u) once.
        The smooth part is one pass per side: the value reads b_u and
        phi_k, phi_k', phi_k''; the defect reads the six partials of u2''
        (chain_rule, ns = 1) and phi_k up to its fourth derivative."""
        spec, loc, kk = wavy
        eps = 2.0 ** -6
        e = expansion.build_expansion(spec, p=0.003, eps=eps, loc=loc,
                                      kink=kk)
        pe = expansion.build_perturbed(e, pprime=eps * 0.003,
                                       hhat=math.sqrt(eps))
        xs = graded_x_grid(loc.t0, eps, 500)
        calls = []
        value, b_val = kink.KinkProfile.value, problem.ProblemSpec.b_val
        phi = problem.ProblemSpec.phi

        def counted_value(self, *args, **kwargs):
            calls.append("value")
            return value(self, *args, **kwargs)

        def counted_phi(self, *args, **kwargs):
            calls.append("phi")
            return phi(self, *args, **kwargs)

        def counted_b_val(self, x, u, dx=0, du=0):
            if np.ndim(x) == 0:
                calls.append("layer" if x == loc.t0 else "scalar")
            else:
                calls.append("b(x, u)" if dx == du == 0 else "smooth")
            return b_val(self, x, u, dx=dx, du=du)

        monkeypatch.setattr(kink.KinkProfile, "value", counted_value)
        monkeypatch.setattr(problem.ProblemSpec, "b_val", counted_b_val)
        monkeypatch.setattr(problem.ProblemSpec, "phi", counted_phi)
        for fn, most_layer, b_xu, smooth, phis in (
                (e.u_as, 0, 0, 2, 6), (pe.beta, 0, 0, 2, 6),
                (e.residual, 6, 1, 12, 10),
                (pe.f_beta_centered, 6, 1, 12, 10)):
            calls.clear()
            fn(xs)
            name = fn.__name__
            assert calls.count("value") == 1, name
            assert calls.count("layer") <= most_layer, name
            assert calls.count("b(x, u)") == b_xu, name
            assert calls.count("smooth") == smooth, name
            assert calls.count("phi") == phis, name
            assert calls.count("scalar") == 0, name

    @staticmethod
    def _count_calls(monkeypatch, methods):
        """Wrap each (class, name) of methods; the list returned gets
        (name, largest ndim of the positional arguments) per call."""
        calls = []
        for cls, name in methods:
            def counted(self, *args, _name=name, _fn=getattr(cls, name),
                        **kwargs):
                calls.append((_name, max(np.ndim(a) for a in args)))
                return _fn(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        return calls

    def test_outer_roots_at_t0_come_from_the_location(self, wavy,
                                                      monkeypatch):
        """A configuration and a jump evaluate nothing on the problem: the
        roots' one-sided data at t0 are the layer location's."""
        spec, loc, kk = wavy
        eps = 2.0 ** -6
        e = expansion.build_expansion(spec, p=0.003, eps=eps, loc=loc,
                                      kink=kk)
        pe = expansion.build_perturbed(e, pprime=eps * 0.003,
                                       hhat=math.sqrt(eps))
        calls = self._count_calls(
            monkeypatch, ((problem.ProblemSpec, "phi"),
                          (problem.ProblemSpec, "b_val")))
        corrections.make_auxiliary(spec, kk, loc, p=0.003)
        e.phi_u_as()
        pe.phi_beta()
        assert calls == []

    def test_no_scalar_lookup_per_build(self, wavy, monkeypatch):
        """build_expansion and build_perturbed read chi(0) and chi'(0) at
        the first node of the positive branch, and evaluate neither the
        profile nor the problem at a single point."""
        spec, loc, kk = wavy
        eps = 2.0 ** -6
        calls = self._count_calls(
            monkeypatch, ((kink.KinkProfile, "value"),
                          (kink.KinkProfile, "slope"),
                          (problem.ProblemSpec, "phi"),
                          (problem.ProblemSpec, "b_val")))
        e = expansion.build_expansion(spec, p=0.003, eps=eps, loc=loc,
                                      kink=kk)
        expansion.build_perturbed(e, pprime=eps * 0.003, hhat=math.sqrt(eps))
        assert calls and [c for c in calls if c[1] == 0] == []


class TestGradedXGrid:
    @pytest.mark.parametrize("n", [2, 13])
    def test_few_points(self, cubic, n):
        _, loc, _ = cubic
        xs = graded_x_grid(loc.t0, 1e-2, n)
        assert np.all(np.diff(xs) > 0.0)
        assert xs[0] > 0.0 and xs[-1] < 1.0
        assert loc.t0 not in xs


class TestCurvatureBound:
    def test_cubic_bound_matches_reaction_curvature(self, cubic_e, cubic):
        spec, loc, kk = cubic
        C5, C0 = expansion.estimate_C0(cubic_e.aux, eps=cubic_e.eps)
        # coarse cross-check: the ratio cannot exceed the curvature sup
        u = np.linspace(0.0, 1.0, 401)
        x = np.linspace(0.0, 1.0, 101)
        curv = max(np.max(np.abs(spec.b_val(xv, u, du=2))) for xv in x)
        assert C5 <= 1.05 * curv + 1e-9
        assert C0 == pytest.approx(1.0 / C5)

    def test_degenerate_linear_reaction_guard(self, cubic, cubic_e):
        """A reaction linear in u has zero curvature: the floor and cap
        engage."""
        from layerforge import expr as ex
        from layerforge import problem as pr
        spec, loc, kk = cubic
        linear = pr.ProblemSpec(name="linear", b=ex.parse("u-0.5"),
                                phi0=spec.phi0, phi1=spec.phi1,
                                phi2=spec.phi2, g0=0.0, g1=1.0, eps=0.01)
        flat = replace(loc, u0_side=(kk.phi1_t0, kk.phi2_t0),
                       du0_side=(0.0, 0.0), ddu0_side=(0.0, 0.0),
                       bs0_side=(1.0, 1.0), u2_side=(0.0, 0.0),
                       du2_side=(0.0, 0.0))
        aux = corrections.LayerAuxiliary(
            spec=linear, kink=kk, loc=flat, p=0.0, tbar1=0.0,
            grid=cubic_e.aux.grid)
        C5, C0 = expansion.estimate_C0(aux, eps=linear.eps)
        assert C5 == 1e-8
        assert C0 == 1e8

    def test_bound_stable_across_epsilon(self, cubic):
        spec, loc, kk = cubic
        values = []
        for eps in (1e-2, 1e-3):
            e = expansion.build_expansion(spec, p=0.0, eps=eps, loc=loc,
                                          kink=kk)
            values.append(expansion.estimate_C0(e.aux, eps=eps)[1])
        assert abs(values[0] / values[1] - 1.0) <= 1e-2


class TestTruncated:
    def test_value_at_layer_point(self, cubic_e, cubic):
        _, loc, kk = cubic
        shift = loc.t1 + cubic_e.eps * loc.t2
        assert cubic_e.truncated(loc.t0, 64, 2.5) == pytest.approx(
            kk.value(-shift), abs=1e-14)

    def test_outer_value(self, cubic_e, cubic):
        spec, _, _ = cubic
        assert cubic_e.truncated(0.0, 64, 2.5) == spec.g0

    @pytest.mark.parametrize("name", ["cubic", "cubic-wavy"])
    def test_outer_roots_beyond_the_mesh_layer_region(self, actx, name):
        """At eps = 2^-5 the layer region is capped at min(t0, 1 - t0) / 2,
        as the mesh's is: the ends take the boundary data and every point
        beyond the mesh's tau its outer root."""
        spec, loc, kk = actx.pipeline(name)
        eps, N = 2.0 ** -5, 2048
        e = expansion.build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kk)
        tau = solver.build_mesh(loc, eps, N).tau
        x = np.linspace(0.0, 1.0, 1001)
        u = e.truncated(x, N, solver.C_TAU)
        assert u[0] == pytest.approx(spec.phi(1, 0.0), abs=1e-15)
        assert u[-1] == pytest.approx(spec.phi(2, 1.0), abs=1e-15)
        for k, beyond in ((1, x < loc.t0 - tau), (2, x > loc.t0 + tau)):
            assert beyond.any()
            np.testing.assert_allclose(u[beyond], spec.phi(k, x[beyond]),
                                       rtol=0.0, atol=1e-15)

    def test_preconditions(self, cubic_e):
        with pytest.raises(ValueError):
            cubic_e.truncated(0.3, 64, 1.5)
        with pytest.raises(ValueError):
            cubic_e.truncated(0.3, 1, 2.5)
        with pytest.raises(ValueError):
            cubic_e.truncated(0.3, 64, math.nan)


class TestResidual:
    def test_reduced_function_has_zero_residual(self, cubic):
        """The lower outer root solves the reduced equation identically."""
        spec, loc, _ = cubic
        xs = np.linspace(0.01, loc.t0 - 0.01, 99)
        phi1 = spec.phi(1, xs) + 0.0 * xs
        assert np.max(np.abs(spec.b_val(xs, phi1))) <= 1e-14

    def test_third_order_scale_at_fixed_epsilon(self, cubic_e, cubic):
        _, loc, _ = cubic
        xs = graded_x_grid(loc.t0, cubic_e.eps, 2000)
        worst = np.max(np.abs(cubic_e.residual(xs)))
        assert worst <= 100.0 * cubic_e.eps ** 3


class TestShapeRule:
    """Every evaluator returns a float for a scalar and otherwise an array
    of its input's shape, sizes 0 and 1 included."""

    @pytest.fixture(scope="class")
    def evaluators(self, cubic_e, cubic, cubic_terms):
        _, _, kk = cubic
        _, terms = cubic_terms
        pe = expansion.build_perturbed(cubic_e, pprime=1e-3, hhat=0.05)
        return {
            "u_as": cubic_e.u_as,
            "residual": cubic_e.residual,
            "truncated": lambda x: cubic_e.truncated(x, 64, 2.5),
            "beta": pe.beta,
            "f_beta_centered": pe.f_beta_centered,
            "KinkProfile.value": kk.value,
            "CorrectionTerm.value": terms["v1"].value,
        }

    @pytest.mark.parametrize("name", [
        "u_as", "residual", "truncated", "beta", "f_beta_centered",
        "KinkProfile.value", "CorrectionTerm.value"])
    def test_shapes(self, evaluators, name):
        fn = evaluators[name]
        empty = fn(np.empty(0))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        one = fn(np.array([0.3]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        scalar = fn(0.3)
        assert isinstance(scalar, float)
        assert scalar == one[0]
        assert fn(np.array([[0.3, 0.7]])).shape == (1, 2)
