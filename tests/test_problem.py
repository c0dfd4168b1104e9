import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from layerforge import expr as ex
from layerforge import problem
from layerforge.expr import ParseError

CUBIC = problem.BUILTIN_PROBLEMS["cubic"]

REFERENCE_DIR = Path(problem.__file__).with_name("problems") / "reference"

#: the benchmark's problem generator, loaded from its file
_GEN_PATH = (Path(__file__).resolve().parent.parent / "perfbench"
             / "problems.py")
_GEN_SPEC = importlib.util.spec_from_file_location("perfbench_problems",
                                                   _GEN_PATH)
generated = importlib.util.module_from_spec(_GEN_SPEC)
_GEN_SPEC.loader.exec_module(generated)


def write(tmp_path, data, raw=None):
    path = tmp_path / "problem.json"
    path.write_text(raw if raw is not None else json.dumps(data))
    return path


class TestLoad:
    def test_cubic_file_loads(self, tmp_path):
        spec = problem.load_problem(write(tmp_path, CUBIC))
        assert spec.name == "cubic"
        assert spec.eps == 0.01
        report = problem.check_assumptions(spec)
        assert report.all_passed()

    def test_bad_boundary_value_loads_but_fails_check(self, tmp_path):
        data = dict(CUBIC, g1=0.0)
        spec = problem.load_problem(write(tmp_path, data))
        report = problem.check_assumptions(spec)
        assert report.checks["A6"].passed is False
        assert report.all_passed() is False

    def test_truncated_json_is_a_parse_error(self, tmp_path):
        path = write(tmp_path, None, raw='{"name": "cubic", "b": ')
        with pytest.raises(problem.ProblemError, match="not valid JSON") as exc:
            problem.load_problem(path)
        assert isinstance(exc.value.__cause__, json.JSONDecodeError)

    def test_missing_fields(self, tmp_path):
        data = {k: v for k, v in CUBIC.items() if k != "phi2"}
        with pytest.raises(problem.ProblemError, match="phi2"):
            problem.load_problem(write(tmp_path, data))

    def test_root_referencing_u_rejected(self, tmp_path):
        data = dict(CUBIC, phi0="u")
        with pytest.raises(problem.ProblemError, match="may not reference u"):
            problem.load_problem(write(tmp_path, data))

    def test_bad_expression_propagates(self, tmp_path):
        data = dict(CUBIC, b="u +* x")
        with pytest.raises(ParseError):
            problem.load_problem(write(tmp_path, data))

    @pytest.mark.parametrize("fields, message", [
        ({"phi2": "(1e300*1e300)^2"}, "phi2 is inf at x = 0"),
        ({"phi2": "1/1e300^-1"}, r"b\(x, phi2\(x\)\) is inf at x = 0"),
        ({"phi1": "0*(1e300*1e300)"}, "phi1 is nan at x = 0"),
        ({"phi0": "exp(1000*x)"}, "phi0 is inf at x = 1"),
    ])
    def test_non_finite_end_value_rejected(self, fields, message):
        """Each root, and b on the outer roots, must be finite at both
        ends; the error names the field and the point."""
        with pytest.raises(problem.ProblemError, match=message):
            problem.problem_from_dict(dict(CUBIC, **fields))

    def test_epsilon_range(self):
        with pytest.raises(problem.ProblemError, match="epsilon"):
            problem.problem_from_dict(dict(CUBIC, epsilon=0.0))
        with pytest.raises(problem.ProblemError, match="epsilon"):
            problem.problem_from_dict(dict(CUBIC, epsilon=1.5))

    def test_builtin_names(self):
        assert problem.builtin_problem("cubic").name == "cubic"
        assert problem.builtin_problem("cubic-wavy").name == "cubic-wavy"
        with pytest.raises(problem.ProblemError):
            problem.builtin_problem("no-such-problem")

    def test_resolve_accepts_paths(self, tmp_path):
        path = write(tmp_path, CUBIC)
        spec = problem.resolve_problem(str(path), eps=0.02)
        assert spec.eps == 0.02


class TestReferenceProblems:
    def test_every_file_loads(self):
        names = sorted(path.stem for path in REFERENCE_DIR.glob("*.json"))
        assert names == list(problem.REFERENCE_PROBLEMS)
        for data in problem.REFERENCE_PROBLEMS.values():
            problem.problem_from_dict(data)

    def test_names_are_file_stems_and_not_builtins(self):
        for stem, data in problem.REFERENCE_PROBLEMS.items():
            assert data["name"] == stem
            assert stem not in problem.BUILTIN_PROBLEMS

    def test_runs_by_path_only(self):
        path = str(REFERENCE_DIR / "cubic-flipped.json")
        assert problem.resolve_problem(path).name == "cubic-flipped"
        with pytest.raises(problem.ProblemError, match="no built-in"):
            problem.resolve_problem("cubic-flipped")

    def test_curved_is_the_generated_instance(self):
        """gen-curved-4 is the curved draw of the construct workload's
        generator at seed 1, field for field."""
        curved = [dict(data) for data in generated.generate(1, 1)
                  if data["kind"] == "curved"]
        assert len(curved) == 1
        del curved[0]["kind"]
        assert problem.REFERENCE_PROBLEMS["gen-curved-4"] == curved[0]


class TestDerivedExpressions:
    def test_constant_root_takes_the_input_shape(self):
        spec = problem.builtin_problem("cubic")
        xs = np.linspace(0.0, 1.0, 7)
        assert spec.phi(1, xs).shape == xs.shape
        assert np.all(spec.phi(1, xs) == 0.0)
        assert spec.b_val(xs, xs, du=3).shape == xs.shape
        assert isinstance(spec.phi(1, 0.5), float)

    @pytest.mark.parametrize("derived", ["b_partials", "phi_derivs"])
    def test_derived_fields_are_not_constructor_arguments(self, derived):
        spec = problem.builtin_problem("cubic")
        kwargs = dict(name=spec.name, b=spec.b, phi0=spec.phi0,
                      phi1=spec.phi1, phi2=spec.phi2, g0=spec.g0, g1=spec.g1,
                      eps=spec.eps)
        with pytest.raises(TypeError):
            problem.ProblemSpec(**kwargs, **{derived: getattr(spec, derived)})

    def test_u2_expressions_match_the_closed_form(self):
        # u2 = phi_k'' / b_u(x, phi_k); on the wavy problem the outer roots
        # are 0.1 sin(pi x) (+1), and b_u at a root is the product of its
        # distances to the other two roots
        spec = problem.builtin_problem("cubic-wavy")
        x = np.linspace(0.05, 0.95, 7)
        pi = 3.14159265358979
        s = 0.1 * np.sin(pi * x)
        ddphi = -0.1 * pi ** 2 * np.sin(pi * x)
        middle = 0.75 - 0.5 * x + s
        expected = (ddphi / ((s - middle) * (s - (1 + s))),
                    ddphi / ((1 + s - s) * (1 + s - middle)))
        for side in (0, 1):
            _, (got,) = spec.outer(side + 1, x)
            assert np.allclose(got, expected[side], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", ["cubic-wavy", "curved"])
    def test_u2_matches_the_symbolic_quotient(self, curved_data, name):
        """u2 and its two slopes by the product rule match the tree of
        phi_k'' / b_u(x, phi_k(x)) and its x-derivatives: bitwise for u2,
        to 1e-11 of the largest reference value for the slopes.  The same
        pass returns the root derivatives it read, bitwise phi's."""
        spec = (problem.problem_from_dict(curved_data) if name == "curved"
                else problem.builtin_problem(name))
        x = np.linspace(0.0, 1.0, 101)
        for k in (1, 2):
            d, u2 = spec.outer(k, x, order=2)
            assert len(d) == 5 and len(u2) == 3
            for m, dm in enumerate(d):
                assert np.array_equal(dm, spec.phi(k, x, order=m)), (k, m)
            root = spec.phi_derivs[k]
            g = ex.substitute(spec.b_partials[(0, 1)], "u", root[0])
            tree = ex.div(root[2], g)
            for order in range(3):
                exact = ex.evaluate(tree, x, 0.0)
                got = u2[order]
                assert np.array_equal(
                    got, spec.outer(k, x, order=order)[1][order])
                if order == 0:
                    assert np.array_equal(got, exact), k
                else:
                    gap = np.max(np.abs(got - exact))
                    assert gap <= 1e-11 * np.max(np.abs(exact)), (k, order)
                tree = ex.differentiate(tree, "x")

    def test_vanishing_b_u_on_a_root_is_a_domain_error(self):
        # b_u(x, phi1(x)) = (phi1 - phi0) (phi1 - 1) (x - 0.5) vanishes at
        # x = 0.5 only, and the constant root's u2 = 0 / b_u is undefined
        # there too
        spec = problem.problem_from_dict(dict(
            CUBIC, b="u*(u-(0.75-0.5*x))*(u-1)*(x-0.5)"))
        for order in range(3):
            for x in (0.5, np.array([0.25, 0.5, 0.75])):
                with pytest.raises(ex.DomainError, match="phi1 at x = 0.5"):
                    spec.outer(1, x, order=order)
            _, u2 = spec.outer(1, np.array([0.25, 0.75]), order=order)
            assert np.all(np.isfinite(u2))

    def test_epsilon_override_keeps_derived_fields(self, tmp_path):
        spec = problem.resolve_problem(str(write(tmp_path, CUBIC)),
                                       eps=0.02)
        assert spec.eps == 0.02
        assert set(spec.b_partials) == set(
            problem.builtin_problem("cubic").b_partials)
        assert len(spec.phi_derivs) == 3


class TestCheckAssumptions:
    def test_cubic_all_pass_with_expected_gamma(self):
        report = problem.check_assumptions(problem.builtin_problem("cubic"))
        assert report.all_passed()
        # closed-form slope floor 0.25 with the 1% safety margin
        assert report.gamma_sq_est == pytest.approx(0.25 * 0.99, abs=1e-12)
        assert report.checks["A5"].passed is None

    def test_wavy_all_pass(self):
        report = problem.check_assumptions(problem.builtin_problem("cubic-wavy"))
        assert report.all_passed()
        assert report.gamma_sq_est == pytest.approx(0.25 * 0.99, rel=1e-6)

    def test_flipped_middle_root_passes_static_checks(self):
        report = problem.check_assumptions(problem.problem_from_dict(
            problem.REFERENCE_PROBLEMS["cubic-flipped"]))
        # the orientation violation is only visible to the locator
        assert report.all_passed()

    def test_min_grid(self):
        with pytest.raises(ValueError):
            problem.check_assumptions(problem.builtin_problem("cubic"), n_grid=8)


class TestShiftedReactionBound:
    @pytest.mark.parametrize("name", ["cubic", "cubic-wavy"])
    def test_x_derivatives_bounded_by_layer_distance(self, name, actx):
        """|d^m_x B(x,s)| <= C |s| for m = 0,1,2, fitted/validated split."""
        spec, loc, _ = actx.pipeline(name)
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, 1.0, 100)
        xs = xs[np.abs(xs - loc.t0) > 1e-3]
        ss = rng.uniform(-1.5, 1.5, xs.size)
        ss[np.abs(ss) < 1e-3] = 0.5

        def b_shift_xderiv(x, s, m):
            # chain rule through u0(x) + s with u0 the active outer root
            k = 1 if x < loc.t0 else 2
            u = spec.phi(k, x) + s
            du0 = spec.phi(k, x, order=1)
            ddu0 = spec.phi(k, x, order=2)
            if m == 0:
                return spec.b_val(x, u)
            if m == 1:
                return spec.b_val(x, u, dx=1) + du0 * spec.b_val(x, u, du=1)
            return (spec.b_val(x, u, dx=2)
                    + 2 * du0 * spec.b_val(x, u, dx=1, du=1)
                    + du0 ** 2 * spec.b_val(x, u, du=2)
                    + ddu0 * spec.b_val(x, u, du=1))

        for m in (0, 1, 2):
            ratios = np.array([abs(b_shift_xderiv(x, s, m)) / abs(s)
                               for x, s in zip(xs, ss)])
            half = ratios.size // 2
            C = 1.05 * ratios[:half].max()
            assert np.all(ratios[half:] <= C)
