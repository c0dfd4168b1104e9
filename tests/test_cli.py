import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerforge import cli, corrections, kink, problem


CUBIC_B = problem.BUILTIN_PROBLEMS["cubic"]["b"]

REFERENCE_DIR = Path(problem.__file__).with_name("problems") / "reference"

#: a reference problem's path, which `all` does not take
FLIPPED = str(REFERENCE_DIR / "cubic-flipped.json")


def _cubic_with(**fields):
    """The cubic's problem file with some fields replaced, as JSON text."""
    return json.dumps(dict(problem.BUILTIN_PROBLEMS["cubic"], **fields))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestLocate:
    def test_json_payload(self, capsys):
        code, out = run(capsys, "locate", "--problem", "cubic")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["t0"] == pytest.approx(0.5, abs=1e-10)
        assert payload["C_I"] == pytest.approx(1.0 / 12.0, abs=1e-9)

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "locate", "--problem", "cubic")
        _, second = run(capsys, "locate", "--problem", "cubic")
        assert first == second

    def test_unequal_tail_rates_build(self, capsys, tmp_path):
        """Tail rates 0.80 and 2.68: each side's table ends at its own
        last node, so the faster side's weight never rounds to 0."""
        path = tmp_path / "unequal.json"
        path.write_text(_cubic_with(b=CUBIC_B + "*exp(3*u)"))
        code, out = run(capsys, "locate", "--problem", str(path))
        assert code == 0
        assert json.loads(out)["t1"] == pytest.approx(0.0102, abs=1e-4)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run(
            [sys.executable, "-m", "layerforge", "locate", "--problem",
             "cubic"], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "locate"


class TestUsageErrors:
    def test_nonpositive_epsilon(self, capsys):
        code = cli.main(["phi", "--problem", "cubic", "--eps", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--eps" in err

    def test_odd_mesh(self, capsys):
        code = cli.main(["solve", "--problem", "cubic", "--n", "33"])
        assert code == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["expand", "--n", "1"],
        ["expand", "--pprime", "0.1"],
        ["monotone", "--pprime", "0.2"],
        ["expand", "--hhat", "1"],
        ["monotone", "--hhat", "1"],
        ["check", "--n-grid", "8"],
        ["solve", "--n", "0"],
        ["solve", "--n", "-4"],
        ["solve", "--n", "2"],
        ["compare", "--n", "2"],
        ["all", "--eps", "0.5"],
        ["expand", "--p", "nan"],
        ["monotone", "--p", "nan"],
        ["decay", "--p", "nan"],
        ["solve", "--c-tau", "nan", "--n", "64"],
        ["expand", "--pprime", "nan"],
        ["expand", "--hhat", "nan"],
        ["dump-kink", "--eps", "0.5"],
        ["residual", "--eps", "0.5"],
        ["fbeta", "--eps", "0.5"],
    ], ids=["expand-n", "expand-pprime", "monotone-pprime", "expand-hhat",
            "monotone-hhat", "check-n-grid", "solve-n-zero",
            "solve-n-negative", "solve-n-two", "compare-n-two", "all-eps", "expand-p-nan", "monotone-p-nan",
            "decay-p-nan", "solve-c-tau-nan", "expand-pprime-nan",
            "expand-hhat-nan", "dump-kink-eps", "residual-eps", "fbeta-eps"])
    def test_out_of_range_argument_is_one_usage_line(self, capsys, argv):
        code = cli.main(argv + ["--problem", "cubic"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {argv[1]}")
        assert captured.err.count("\n") == 1

    def test_default_pprime_names_its_sources(self, capsys):
        """A --pprime the user never passed is reported as the default
        eps * p it came from, with the library's own rule."""
        code = cli.main(["monotone", "--problem", "cubic", "--eps", "0.9",
                         "--p", "0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "usage error: --pprime defaults to eps * p, whose magnitude "
            "must not exceed 0.05, got 0.09000000000000001; pass --pprime "
            "or a smaller --p\n")

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "100000000000"],
        ["compare", "--n", "100000000000"],
        ["expand", "--points", "100000000000"],
        ["monotone", "--points", "100000000000"],
        ["check", "--n-grid", "100000000000"],
    ], ids=["solve-n", "compare-n", "expand-points", "monotone-points",
            "check-n-grid"])
    def test_size_over_the_cap_is_one_usage_line(self, capsys, argv):
        """Checked before anything is allocated: 1e11 would need up to
        745 GiB."""
        code = cli.main(argv + ["--problem", "cubic"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"usage error: {argv[1]} must not exceed "
                                f"{cli.SIZE_CAP}, got {argv[2]}\n")

    @pytest.mark.parametrize("argv, line", [
        (["expand", "--problem", "cubic", "--p", "0.5"],
         "--p magnitude must not exceed 0.1, got 0.5"),
        (["monotone", "--problem", "cubic", "--p", "0.5"],
         "--p magnitude must not exceed 0.1, got 0.5"),
        (["expand", "--problem", "cubic", "--points", "1"],
         "--points must be at least 2, got 1"),
        (["all", "--problem", FLIPPED],
         f"--problem must name a built-in for 'all', got {FLIPPED!r}"),
    ], ids=["expand-p", "monotone-p", "expand-points", "all-path"])
    def test_usage_line(self, capsys, argv, line):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: {line}\n"

    def test_expand_truncation_n_has_no_cap(self, capsys):
        code = cli.main(["expand", "--problem", "cubic", "--points", "3",
                         "--n", "100000000000"])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["expand", "--out"],
        ["residual", "--csv"],
    ], ids=["expand-out", "residual-csv"])
    def test_unwritable_output_is_one_usage_line(self, capsys, tmp_path,
                                                 argv):
        path = tmp_path / "missing" / "x"
        code = cli.main(argv + [str(path), "--problem", "cubic"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"usage error: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_profile_failure_is_reported(self, capsys, monkeypatch):
        empty = np.empty(0)
        monkeypatch.setattr(kink, "integrate_kink",
                            lambda *args: (empty, empty, empty, empty, 0, 2))
        code = cli.main(["dump-kink", "--problem", "cubic"])
        assert code == 1
        assert "ProfileIntegrationFailed" in capsys.readouterr().err

    def test_unknown_problem_is_reported(self, capsys):
        code = cli.main(["check", "--problem", "no-such"])
        assert code == 2
        assert "no-such" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ('{"name": "bad", "b": ', "ProblemError"),
        (_cubic_with(b="+".join(["u"] * 3000)), "ParseError"),
        (_cubic_with(b="(" * 200 + "u" + ")" * 200), "ParseError"),
        (_cubic_with(b="-" * 2000 + "u"), "ParseError"),
        (_cubic_with(b="u" + "^1" * 3000), "ParseError"),
        (_cubic_with(b="/".join(["u"] * 40)), "ProblemError"),
        (_cubic_with(b=CUBIC_B + "*exp(30*u)"), "NoSignChange"),
        (_cubic_with(epsilon="abc"), "ProblemError"),
        (_cubic_with(b=CUBIC_B + "*sqrt(x-0.5)"), "DomainError"),
        (_cubic_with(b=CUBIC_B + "+0*(1e200^2)"), "DomainError"),
        (_cubic_with(b="1e300^3"), "DomainError"),
        (_cubic_with(b="u*(0^-1)"), "DomainError"),
        (_cubic_with(phi2="(1e300*1e300)^2"), "ProblemError"),
        (_cubic_with(phi2="1/1e300^-1"), "ProblemError"),
        (_cubic_with(phi1="0*(1e300*1e300)"), "ProblemError"),
    ], ids=["malformed-json", "sum-of-3000-terms", "200-nested-brackets",
            "2000-unary-minuses", "3000-powers", "deep-third-partial",
            "large-area-integrand",
            "non-numeric-epsilon", "reaction-domain", "scalar-power-overflow",
            "constant-power-overflow", "constant-zero-to-negative-power",
            "infinite-root", "infinite-reaction-on-root", "nan-root"])
    def test_bad_problem_file_is_one_line(self, capsys, tmp_path, text, error):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = cli.main(["locate", "--problem", str(path)])
        err = capsys.readouterr().err
        assert code == (2 if error in ("ProblemError", "ParseError") else 1)
        assert err.startswith(error + ": ")
        assert err.count("\n") == 1

    def test_float_overflow_is_one_line(self, tmp_path):
        # numpy warnings would print ahead of the error line; pytest captures
        # them in-process, so the stderr of a real run is checked
        path = tmp_path / "overflow.json"
        path.write_text(_cubic_with(b=CUBIC_B + "*exp(4000*u*(1-u))"))
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "layerforge", "locate", "--problem",
             str(path)], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert proc.stderr.startswith("FloatingPointError: ")
        assert proc.stderr.count("\n") == 1

    def test_unreadable_problem_path_is_one_line(self, capsys, tmp_path):
        code = cli.main(["locate", "--problem", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ProblemError: ")
        assert err.count("\n") == 1

    def test_degenerate_root_is_one_line(self, capsys):
        code = cli.main(["locate", "--problem",
                         str(REFERENCE_DIR / "cubic-degenerate.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("DegenerateRoot: ")
        assert err.endswith(": root not simple\n")
        assert err.count("\n") == 1

    def test_weight_underflow_is_one_line(self, capsys, tmp_path,
                                          underflow_data):
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(underflow_data))
        code = cli.main(["locate", "--problem", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("WeightUnderflow: ")
        assert err.count("\n") == 1


class TestJsonStrings:
    def test_control_character_in_problem_name(self, capsys, tmp_path):
        path = tmp_path / "tab.json"
        path.write_text(_cubic_with(name="cubic\tv2"))
        code, out = run(capsys, "locate", "--problem", str(path))
        assert code == 0
        assert json.loads(out)["problem"] == "cubic\tv2"

    def test_strings_without_control_characters_keep_their_bytes(self):
        text = 'a "quoted" back\\slash, \u00e9, \u2028 and \x7f'
        assert cli.dumps(text) == ('"a \\"quoted\\" back\\\\slash, '
                                   '\u00e9, \u2028 and \x7f"')


def _reference_dumps(obj, indent=0):
    """The value-by-value JSON renderer: the bytes the table rule of
    cli.dumps must keep."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}  {json.dumps(k, ensure_ascii=False)}: "
                 f"{_reference_dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_reference_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    return str(int(obj))


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e22,
                     float("inf"), float("-inf"), float("nan")]))
_STRINGS = st.text(st.one_of(st.sampled_from('"\\%\x00\x1f\x7f\n\u00e9\u2028'),
                             st.characters(codec="utf-8")), max_size=6)


@st.composite
def _tables(draw):
    """Rows of one length, each column all floats or all strings, as lists
    or tuples."""
    kinds = draw(st.lists(st.sampled_from((_FLOATS, _STRINGS)), min_size=1,
                          max_size=4))
    rows = draw(st.lists(st.tuples(*kinds), min_size=1, max_size=12))
    return [list(row) if draw(st.booleans()) else row for row in rows]


class TestTables:
    """A table renders in one pass with the bytes of the value-by-value
    path; every other value takes that path."""

    @given(_tables(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None, database=None)
    def test_table_keeps_the_bytes(self, table, indent):
        assert cli.dumps(table, indent) == _reference_dumps(table, indent)
        nested = {"columns": ["a"], "rows": table, "n": len(table)}
        assert cli.dumps(nested, indent) == _reference_dumps(nested, indent)

    @given(st.lists(st.tuples(_FLOATS, _STRINGS), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None, database=None)
    def test_csv_keeps_the_bytes(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        cli._write_csv(str(path), ("x", "label"), rows)
        expected = "".join(f"{format(x, '.17g')},{label}\n"
                           for x, label in rows)
        assert path.read_bytes().decode() == "x,label\n" + expected

    @pytest.mark.parametrize("rows, text", [
        ([[1, True, None]], "[\n  [\n    1,\n    true,\n    null\n  ]\n]"),
        ([[np.float64(0.5), np.float64(-0.0)]],
         "[\n  [\n    0.5,\n    -0\n  ]\n]"),
        ([[1.0], [2.0, 3.0]],
         "[\n  [\n    1\n  ],\n  [\n    2,\n    3\n  ]\n]"),
        ([[], []], "[\n  [],\n  []\n]"),
        ([[0.5], ["a"]], '[\n  [\n    0.5\n  ],\n  [\n    "a"\n  ]\n]'),
    ], ids=["int-bool-null", "numpy-floats", "ragged", "empty-rows",
            "mixed-column"])
    def test_other_rows_take_the_value_path(self, rows, text):
        assert cli._render_rows(rows, "", ",", "", "\n", str) is None
        assert cli.dumps(rows) == text == _reference_dumps(rows)


class TestReports:
    def test_check_passes_on_builtin(self, capsys):
        code, out = run(capsys, "check", "--problem", "cubic")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["checks"]["A5"]["passed"] is None

    def test_check_fails_on_bad_problem(self, capsys, tmp_path):
        bad = dict(problem.BUILTIN_PROBLEMS["cubic"], name="bad", g1=0.5)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out = run(capsys, "check", "--problem", str(path))
        assert code == 1
        assert json.loads(out)["checks"]["A6"]["passed"] is False

    def test_dump_kink_builds_only_the_profile(self, capsys, monkeypatch):
        _, expected = run(capsys, "dump-kink", "--problem", "cubic")

        def unused(*args):
            raise AssertionError("dump-kink ran the matching")

        monkeypatch.setattr(corrections, "compute_matching", unused)
        code, out = run(capsys, "dump-kink", "--problem", "cubic")
        assert code == 0
        assert out == expected

    def test_dump_kink_csv(self, capsys):
        code, out = run(capsys, "dump-kink", "--problem", "cubic")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "xi,V0,chi"
        assert len(lines) > 2000

    def test_expand_csv_written_to_file(self, capsys, tmp_path):
        path = tmp_path / "expand.csv"
        code, _ = run(capsys, "expand", "--problem", "cubic",
                      "--points", "11", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,u_as,beta,U_trunc"
        assert len(lines) == 12

    @pytest.mark.parametrize("argv", [
        ["dump-kink"],
        ["expand", "--points", "11"],
        ["solve", "--n", "16"],
    ], ids=["dump-kink", "expand", "solve"])
    def test_json_written_to_file(self, capsys, tmp_path, argv):
        path = tmp_path / "out.json"
        code, out = run(capsys, *argv, "--problem", "cubic", "--format",
                        "json", "--out", str(path))
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text())
        assert payload["command"] == argv[0]
        assert payload["rows"]

    def test_compare_report(self, capsys):
        code, out = run(capsys, "compare", "--problem", "cubic",
                        "--n", "256")
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] <= 8
        assert payload["distance_max"] < 1e-3

    def test_monotone_report(self, capsys):
        code, out = run(capsys, "monotone", "--problem", "cubic")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("command", ["phi", "fbeta"])
    def test_sweep_report(self, capsys, command):
        code, out = run(capsys, command, "--problem", "cubic")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == command
        assert payload["passed"] is True

    def test_monotone_on_two_points(self, capsys):
        code, out = run(capsys, "monotone", "--problem", "cubic",
                        "--points", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        # the graded grid keeps at least 16 layer points; the report counts
        # the points it evaluated, not the ones asked for
        assert payload["details"]["n_points"] == 16

    def test_dump_corrections_json(self, capsys):
        code, out = run(capsys, "dump-corrections", "--problem", "cubic",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["phi"]) == {"v1", "v2", "vstar", "z"}
        assert payload["columns"] == ["term", "branch", "xi", "value"]

    def test_decay_report(self, capsys):
        code, out = run(capsys, "decay", "--problem", "cubic")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert set(payload["rates"]) == {"chi", "v1", "v2", "vstar", "z"}
