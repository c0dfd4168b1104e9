import json
from pathlib import Path

import numpy as np
import pytest

from layerforge import problem
from layerforge.expr import ParseError, evaluate

CUBIC_JSON = {
    "name": "cubic",
    "b": "u*(u-(0.75-0.5*x))*(u-1)",
    "phi0": "0.75-0.5*x",
    "phi1": "0",
    "phi2": "1",
    "g0": 0.0,
    "g1": 1.0,
    "epsilon": 0.01,
}


PROBLEMS_DIR = Path(__file__).resolve().parents[1] / "problems"


def write(tmp_path, data, raw=None):
    path = tmp_path / "problem.json"
    path.write_text(raw if raw is not None else json.dumps(data))
    return path


class TestLoad:
    def test_cubic_file_loads(self, tmp_path):
        spec = problem.load_problem(write(tmp_path, CUBIC_JSON))
        assert spec.name == "cubic"
        assert spec.eps == 0.01
        report = problem.check_assumptions(spec)
        assert report.all_passed()

    def test_bad_boundary_value_loads_but_fails_check(self, tmp_path):
        data = dict(CUBIC_JSON, g1=0.0)
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
        data = {k: v for k, v in CUBIC_JSON.items() if k != "phi2"}
        with pytest.raises(problem.ProblemError, match="phi2"):
            problem.load_problem(write(tmp_path, data))

    def test_root_referencing_u_rejected(self, tmp_path):
        data = dict(CUBIC_JSON, phi0="u")
        with pytest.raises(problem.ProblemError, match="may not reference u"):
            problem.load_problem(write(tmp_path, data))

    def test_bad_expression_propagates(self, tmp_path):
        data = dict(CUBIC_JSON, b="u +* x")
        with pytest.raises(ParseError):
            problem.load_problem(write(tmp_path, data))

    def test_epsilon_range(self):
        with pytest.raises(problem.ProblemError, match="epsilon"):
            problem.problem_from_dict(dict(CUBIC_JSON, epsilon=0.0))
        with pytest.raises(problem.ProblemError, match="epsilon"):
            problem.problem_from_dict(dict(CUBIC_JSON, epsilon=1.5))

    def test_builtin_names(self):
        assert problem.builtin_problem("cubic").name == "cubic"
        assert problem.builtin_problem("cubic-wavy").name == "cubic-wavy"
        with pytest.raises(problem.ProblemError):
            problem.builtin_problem("no-such-problem")

    def test_shipped_files_match_builtins(self):
        shipped = {path.stem: json.loads(path.read_text())
                   for path in PROBLEMS_DIR.glob("*.json")}
        assert shipped == problem.BUILTIN_PROBLEMS

    def test_resolve_accepts_paths(self, tmp_path):
        path = write(tmp_path, CUBIC_JSON)
        spec = problem.resolve_problem(str(path), eps=0.02)
        assert spec.eps == 0.02


class TestDerivedExpressions:
    def test_constant_root_takes_the_input_shape(self):
        spec = problem.builtin_problem("cubic")
        xs = np.linspace(0.0, 1.0, 7)
        assert spec.phi(1, xs).shape == xs.shape
        assert np.all(spec.phi(1, xs) == 0.0)
        assert spec.b_val(xs, xs, du=3).shape == xs.shape
        assert isinstance(spec.phi(1, 0.5), float)

    @pytest.mark.parametrize("derived", ["b_partials", "phi_derivs",
                                         "u2_exprs"])
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
            got = evaluate(spec.u2_exprs[side][0], x, 0.0)
            assert np.allclose(got, expected[side], rtol=1e-12, atol=0)

    def test_epsilon_override_keeps_derived_fields(self, tmp_path):
        spec = problem.resolve_problem(str(write(tmp_path, CUBIC_JSON)),
                                       eps=0.02)
        assert spec.eps == 0.02
        assert set(spec.b_partials) == set(
            problem.builtin_problem("cubic").b_partials)
        assert len(spec.u2_exprs) == 2


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
        data = dict(CUBIC_JSON, b="u*(u-(0.25+0.5*x))*(u-1)",
                    phi0="0.25+0.5*x")
        report = problem.check_assumptions(problem.problem_from_dict(data))
        # the orientation violation is only visible to the locator
        assert report.all_passed()

    def test_min_grid(self):
        with pytest.raises(ValueError):
            problem.check_assumptions(problem.builtin_problem("cubic"), n_grid=8)

    def test_gamma_bar_merge(self):
        report = problem.check_assumptions(problem.builtin_problem("cubic"))
        merged = report.with_gamma_bar(0.5)
        assert merged.gamma_bar_sq_est == 0.5
        assert merged.gamma_bar_sq_est >= merged.gamma_sq_est


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
