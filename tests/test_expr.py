import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerforge import expr as ex
from layerforge import kernels

B_CUBIC = "u*(u-(0.75-0.5*x))*(u-1)"


def depth(e):
    if isinstance(e, (ex.Const, ex.Var)):
        return 1
    if isinstance(e, ex.Neg):
        return 1 + depth(e.arg)
    if isinstance(e, ex.BinOp):
        return 1 + max(depth(e.left), depth(e.right))
    if isinstance(e, ex.Pow):
        return 1 + depth(e.base)
    return 1 + depth(e.arg)


class TestParse:
    def test_cubic_reaction_parses(self):
        e = ex.parse("u*(u-1)*(u-(0.75-0.5*x))")
        assert depth(e) >= 4

    def test_double_star_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse("u**2")

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ex.ParseError, match="pi"):
            ex.parse("sin(pi*x)")

    def test_error_carries_offset(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse("x + @")
        assert err.value.offset == 4

    def test_empty_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse("   ")

    def test_power_requires_integer(self):
        with pytest.raises(ex.ParseError):
            ex.parse("x^1.5")
        assert isinstance(ex.parse("x^-2"), ex.Pow)

    def test_precedence(self):
        # ^ binds above unary minus, * above +
        assert ex.evaluate(ex.parse("-x^2"), 3.0, 0.0) == -9.0
        assert ex.evaluate(ex.parse("1+2*3"), 0.0, 0.0) == 7.0
        assert ex.evaluate(ex.parse("2-3-4"), 0.0, 0.0) == -5.0


class TestDifferentiate:
    def test_product_rule(self):
        d = ex.differentiate(ex.parse("u*(u-1)"), "u")
        for u in (-1.0, 0.0, 0.3, 2.5):
            assert ex.evaluate(d, 0.0, u) == pytest.approx(2 * u - 1, abs=1e-14)

    def test_chain_rule_hand_value(self):
        d = ex.differentiate(ex.parse(B_CUBIC), "x")
        assert ex.evaluate(d, 0.5, 0.25) == pytest.approx(-0.09375, abs=1e-15)

    def test_second_u_derivative_of_affine_vanishes(self):
        e = ex.parse("(3+x)*u + sin(x)")
        d2 = ex.differentiate(ex.differentiate(e, "u"), "u")
        x = np.linspace(0, 1, 17)
        assert np.all(ex.evaluate(d2, x, x) == 0.0)

    @pytest.mark.parametrize("text", [
        B_CUBIC,
        "sin(3.14159265358979*x)*u^3",
        "exp(-x)*tanh(u) + sqrt(1+u^2)",
        "cos(x*u)/(2+u^2)",
        "ln(2+x^2) - u/(1+x)",
    ])
    @pytest.mark.parametrize("var", ["x", "u"])
    def test_matches_central_differences(self, text, var):
        e = ex.parse(text)
        d = ex.differentiate(e, var)
        rng = np.random.default_rng(20240814)
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        h = 1e-6
        for x, u in pts:
            if var == "x":
                fd = (ex.evaluate(e, x + h, u) - ex.evaluate(e, x - h, u)) / (2 * h)
            else:
                fd = (ex.evaluate(e, x, u + h) - ex.evaluate(e, x, u - h)) / (2 * h)
            exact = ex.evaluate(d, x, u)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)

    def test_third_order_mixed_partials_closed(self):
        e = ex.parse(B_CUBIC)
        out = e
        for var in ("x", "u", "u"):
            out = ex.differentiate(out, var)
        assert isinstance(out, ex.Expr)


class TestEvaluate:
    def test_reduced_root_is_zero(self):
        e = ex.parse(B_CUBIC)
        assert ex.evaluate(e, 0.5, 0.5) == 0.0

    def test_hand_value(self):
        e = ex.parse(B_CUBIC)
        assert ex.evaluate(e, 0.0, 0.5) == pytest.approx(0.0625, abs=1e-16)

    def test_division_by_zero(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.parse("1/(x-x)"), 0.3, 0.0)

    def test_division_by_zero_on_empty_input(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.parse("x/(1-1)"), np.empty(0), 0.0)

    def test_ln_domain(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.parse("ln(x-1)"), 0.5, 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.parse("sqrt(x-2)"), 0.5, 0.0)

    def test_array_evaluation_matches_scalar(self):
        e = ex.parse(B_CUBIC)
        x = np.linspace(0, 1, 11)
        u = np.linspace(-0.5, 1.5, 11)
        arr = ex.evaluate(e, x, u)
        for i in range(11):
            assert arr[i] == ex.evaluate(e, x[i], u[i])


# a small recursive AST strategy over the full grammar
_leaf = st.one_of(
    st.floats(min_value=-4, max_value=4, allow_nan=False).map(
        lambda v: ex.Const(round(v, 3) + 0.0)),  # fold away negative zero
    st.sampled_from([ex.Var("x"), ex.Var("u")]),
)


def _node(children):
    binop = st.builds(ex.BinOp, st.sampled_from("+-*/"), children, children)
    unary = st.builds(ex.Neg, children)
    power = st.builds(ex.Pow, children, st.integers(min_value=-3, max_value=3))
    call = st.builds(ex.Call, st.sampled_from(ex.FUNCTIONS), children)
    return st.one_of(binop, unary, power, call)


asts = st.recursive(_leaf, _node, max_leaves=12)


def _has_power(e):
    if isinstance(e, ex.Pow):
        return True
    if isinstance(e, ex.BinOp):
        return _has_power(e.left) or _has_power(e.right)
    if isinstance(e, (ex.Neg, ex.Call)):
        return _has_power(e.arg)
    return False


class TestRoundTrip:
    @given(asts)
    @settings(max_examples=200, deadline=None)
    def test_print_parse_round_trip(self, e):
        # one round normalizes (e.g. a negative literal reparses as a
        # negated positive one); on the parser's image the trip is exact
        normal = ex.parse(ex.to_string(e))
        assert ex.parse(ex.to_string(normal)) == normal

    @pytest.mark.parametrize("text", [
        "u*(u-(0.75-0.5*x))*(u-1)",
        "sin(3.14159265358979*x)*u^3 - sqrt(1+u^2)/(2+x)",
        "-x^2 + tanh(u)^-2",
    ])
    def test_round_trip_from_text(self, text):
        e = ex.parse(text)
        assert ex.parse(ex.to_string(e)) == e


class TestSubstitute:
    def test_substitute_variable(self):
        e = ex.parse("u^2 + x")
        s = ex.substitute(e, "u", ex.parse("1-x"))
        assert ex.evaluate(s, 0.25, 99.0) == pytest.approx((0.75) ** 2 + 0.25)

    def test_uses_variable(self):
        assert ex.uses_variable(ex.parse("sin(u)+1"), "u")
        assert not ex.uses_variable(ex.parse("sin(x)+1"), "u")


class TestShapeRule:
    @given(asts)
    @settings(max_examples=200, deadline=None)
    def test_array_matches_elementwise_scalars(self, e):
        x = np.array([0.37, -1.25, 2.5])
        u = np.array([0.61, 0.0, -0.8])
        with np.errstate(all="ignore"):
            try:
                arr = ex.evaluate(e, x, u)
            except ex.DomainError:
                return
            scalars = [ex.evaluate(e, x[i], u[i]) for i in range(3)]
        assert arr.shape == (3,)
        assert all(isinstance(v, float) for v in scalars)
        if _has_power(e):
            # numpy's array power (SIMD pow, x*x for ^2, 1/x for ^-1) and its
            # scalar power (libm pow) can differ in the last bit, so compare
            # with the same point evaluated as a one-element array
            with np.errstate(all="ignore"):
                scalars = [ex.evaluate(e, x[i:i + 1], u[i:i + 1])[0]
                           for i in range(3)]
        assert np.array_equal(arr, scalars, equal_nan=True)

    @pytest.mark.parametrize("text", ["2.5", "sin(1)", "x^2", "u-x"])
    def test_result_has_broadcast_shape(self, text):
        e = ex.parse(text)
        assert isinstance(ex.evaluate(e, 0.5, 0.25), float)
        assert ex.evaluate(e, np.array([0.5]), 0.25).shape == (1,)
        assert ex.evaluate(e, np.empty(0), 0.25).shape == (0,)
        assert ex.evaluate(e, 0.5, np.zeros((2, 3))).shape == (2, 3)
        assert ex.evaluate(e, np.zeros((2, 1)), np.zeros(3)).shape == (2, 3)

    def test_right_shaped_result_is_not_copied(self):
        u = np.linspace(0.0, 1.0, 5)
        assert ex.evaluate(ex.parse("u"), 0.5, u) is u

    def test_kernels_use_the_one_evaluator(self):
        assert kernels.eval_program_array is ex.evaluate
