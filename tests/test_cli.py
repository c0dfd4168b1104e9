import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from layerforge import cli, corrections, kink, problem


CUBIC_B = problem.BUILTIN_PROBLEMS["cubic"]["b"]


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
            "solve-n-negative", "all-eps", "expand-p-nan", "monotone-p-nan",
            "decay-p-nan", "solve-c-tau-nan", "expand-pprime-nan",
            "expand-hhat-nan", "dump-kink-eps", "residual-eps", "fbeta-eps"])
    def test_out_of_range_argument_is_one_usage_line(self, capsys, argv):
        code = cli.main(argv + ["--problem", "cubic"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {argv[1]}")
        assert captured.err.count("\n") == 1

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
        assert code == 1
        assert "no-such" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ('{"name": "bad", "b": ', "ProblemError"),
        (_cubic_with(b="+".join(["u"] * 3000)), "ParseError"),
        (_cubic_with(b="(" * 200 + "u" + ")" * 200), "ParseError"),
        (_cubic_with(b="-" * 2000 + "u"), "ParseError"),
        (_cubic_with(b="u" + "^1" * 3000), "ParseError"),
        (_cubic_with(b="/".join(["u"] * 40)), "ProblemError"),
        (_cubic_with(b=CUBIC_B + "*exp(30*u)"), "NoSignChange"),
        (_cubic_with(b=CUBIC_B + "*exp(3*u)"), "ProfileIntegrationFailed"),
        (_cubic_with(epsilon="abc"), "ProblemError"),
        (_cubic_with(b=CUBIC_B + "*sqrt(x-0.5)"), "DomainError"),
        (_cubic_with(b=CUBIC_B + "+0*(1e200^2)"), "DomainError"),
    ], ids=["malformed-json", "sum-of-3000-terms", "200-nested-brackets",
            "2000-unary-minuses", "3000-powers", "deep-third-partial",
            "large-area-integrand", "underflowing-weight",
            "non-numeric-epsilon", "reaction-domain", "scalar-power-overflow"])
    def test_bad_problem_file_is_one_line(self, capsys, tmp_path, text, error):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = cli.main(["locate", "--problem", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(error + ": ")
        assert err.count("\n") == 1

    def test_float_overflow_is_one_line(self, tmp_path):
        # numpy warnings would print ahead of the error line; pytest captures
        # them in-process, so the stderr of a real run is checked
        path = tmp_path / "overflow.json"
        path.write_text(_cubic_with(b=CUBIC_B + "*exp(1000*u)"))
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
        assert code == 1
        assert err.startswith("ProblemError: ")
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


class TestReports:
    def test_check_passes_on_builtin(self, capsys):
        code, out = run(capsys, "check", "--problem", "cubic")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["checks"]["A5"]["passed"] is None

    def test_check_fails_on_bad_problem(self, capsys, tmp_path):
        bad = dict(name="bad", b="u*(u-(0.75-0.5*x))*(u-1)",
                   phi0="0.75-0.5*x", phi1="0", phi2="1",
                   g0=0.0, g1=0.5, epsilon=0.01)
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
