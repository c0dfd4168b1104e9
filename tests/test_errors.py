"""One error hierarchy decides every exit code.

Every exception class the package defines derives from LayerforgeError,
whose `exit_code` the CLI returns; InputErrors exit 2, every other error 1.
A problem file with one field replaced by a drawn value ends in a result or
in one typed line on stderr, never in a traceback.
"""

import argparse
import contextlib
import importlib
import inspect
import io
import json
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import layerforge
from layerforge import cli, corrections, expansion, problem, solver
from layerforge.errors import ArgumentError, InputError, LayerforgeError

MODULES = [importlib.import_module(f"layerforge.{info.name}")
           for info in pkgutil.iter_modules(layerforge.__path__)]

#: every exception class defined in a layerforge module
ERROR_CLASSES = [cls for module in MODULES for cls in vars(module).values()
                 if inspect.isclass(cls) and issubclass(cls, BaseException)
                 and cls.__module__ == module.__name__]

#: each class by the name the CLI prints on its stderr line
BY_NAME = {cls.__name__: cls for cls in ERROR_CLASSES}


class TestHierarchy:
    def test_every_error_derives_from_the_base(self):
        assert len(ERROR_CLASSES) >= 18
        for cls in ERROR_CLASSES:
            assert issubclass(cls, LayerforgeError), cls

    def test_exit_code_follows_the_class(self):
        for cls in ERROR_CLASSES:
            expected = 2 if issubclass(cls, InputError) else 1
            assert cls.exit_code == expected, cls

    def test_names_identify_the_class(self):
        """The stderr line names the class alone, so no two share a name."""
        assert len(BY_NAME) == len(ERROR_CLASSES)


# ---------------------------------------------------------------------------
# Each argument range has one home: the function that reads the value


def _perturbed(spec, loc, kk, pprime, hhat):
    e = expansion.build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
    return expansion.build_perturbed(e, pprime=pprime, hhat=hhat)


#: (parameter name, rule, a call on the cubic's (spec, loc, kink) that
#: breaks it), for every range a library function checks on its arguments
RANGE_RULES = [
    ("p", "magnitude must not exceed 0.1, got 0.5",
     lambda spec, loc, kk: corrections.make_auxiliary(spec, kk, loc, p=0.5)),
    ("pprime", "magnitude must not exceed 0.05, got 0.1",
     lambda *pipeline: _perturbed(*pipeline, pprime=0.1, hhat=0.0)),
    ("hhat", "squared must not exceed 10.0 * eps = 0.1, got 1.0",
     lambda *pipeline: _perturbed(*pipeline, pprime=0.0, hhat=1.0)),
    ("N", "must be at least 2, got 1",
     lambda spec, loc, kk: solver.layer_half_width(loc, 1e-2, 1, 2.5)),
    ("C_tau", "must exceed 2, got 2.0",
     lambda spec, loc, kk: solver.layer_half_width(loc, 1e-2, 64, 2.0)),
    ("N", "must be at least 4, got 3",
     lambda spec, loc, kk: solver.build_mesh(loc, 1e-2, 3)),
    ("N", "must be even, got 33",
     lambda spec, loc, kk: solver.build_mesh(loc, 1e-2, 33)),
    ("n_grid", "must be at least 16, got 8",
     lambda spec, loc, kk: problem.check_assumptions(spec, n_grid=8)),
]

_SUBPARSERS, = (action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))

#: every option's dest over the CLI's subcommands
CLI_DESTS = {action.dest for sub in _SUBPARSERS.choices.values()
             for action in sub._actions}


@pytest.mark.parametrize("name, rule, call", RANGE_RULES,
                         ids=["p", "pprime", "hhat", "region-n", "c-tau",
                              "mesh-n", "mesh-n-even", "n-grid"])
def test_range_error_names_the_parameter(cubic, name, rule, call):
    """An ArgumentError exits 2, and the CLI names its flag from `name`."""
    with pytest.raises(ArgumentError) as exc:
        call(*cubic)
    err = exc.value
    assert isinstance(err, InputError) and err.exit_code == 2
    assert (err.name, err.rule, str(err)) == (name, rule, f"{name} {rule}")
    assert name.lower() in CLI_DESTS


# ---------------------------------------------------------------------------
# The exit-code contract on drawn problem files

_ATOMS = st.sampled_from(["u", "x", "1", "0.5", "2", "-3", "1e300", "0"])

_EXPRS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}^{}".format, inner, st.sampled_from(["2", "3", "-1"])),
        st.builds("{}({})".format,
                  st.sampled_from(["sin", "cos", "exp", "ln", "tanh", "sqrt",
                                   "log"]), inner)),
    max_leaves=6)

#: a drawn expression, with a few junk characters spliced in at a drawn place
_EXPR_TEXT = st.tuples(
    _EXPRS, st.text(alphabet="()+-*/^,.;$#@ eE\t\n\x00é", max_size=3),
    st.integers(0, 30)).map(lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])

#: non-numbers, null, lists and out-of-range numbers
_NUMBERS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.floats(-2.0, 2.0), max_size=2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 0.5, 1e-300, 1e300, -0.01]))

_REPLACEMENTS = st.one_of(
    st.tuples(st.sampled_from(["b", "phi0", "phi1", "phi2"]), _EXPR_TEXT),
    st.tuples(st.sampled_from(["epsilon", "g0", "g1"]), _NUMBERS))


@given(_REPLACEMENTS)
@settings(max_examples=40, deadline=None, database=None)
def test_problem_file_ends_in_a_result_or_one_typed_line(tmp_path_factory,
                                                         replacement):
    key, value = replacement
    path = tmp_path_factory.mktemp("drawn") / "problem.json"
    path.write_text(json.dumps(dict(problem.BUILTIN_PROBLEMS["cubic"],
                                    **{key: value})))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["locate", "--problem", str(path)])
    line = err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert line == ""
        return
    assert line.endswith("\n") and line.count("\n") == 1, line
    name = line.split(":", 1)[0]
    cls = cli.UsageError if name == "usage error" else BY_NAME.get(name)
    assert (code == 2) == (cls is not None and issubclass(cls, InputError)), \
        line


def test_name_that_is_not_utf8_is_one_typed_line(tmp_path):
    """A lone surrogate is valid JSON, and every output echoes the name: on
    a UTF-8 stdout the run ended in a UnicodeEncodeError traceback."""
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(dict(problem.BUILTIN_PROBLEMS["cubic"],
                                    name="cubic-\ud800")))
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["locate", "--problem", str(path)])
    assert code == 2
    assert err.getvalue() == ("ProblemError: field 'name' is not valid "
                              "UTF-8: 'cubic-\\ud800'\n")
