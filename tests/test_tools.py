import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from layerforge import cli, problem, solver

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cmp_outputs.py"
_SPEC = importlib.util.spec_from_file_location("cmp_outputs", _PATH)
cmp_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cmp_outputs)


class TestNumberDiff:
    def test_largest_absolute_and_relative_gap(self):
        old = '{"c06_slope": 2.5, "rows": [1e-9, -4, 0.0]}\n'
        new = '{"c06_slope": 2.5000001, "rows": [1.5e-9, -4, 0.0]}\n'
        gap_abs, gap_rel = cmp_outputs.number_diff(old, new)
        assert gap_abs == pytest.approx(1e-7)
        assert gap_rel == pytest.approx(1.0 / 3.0)

    def test_equal_numbers_and_nan_give_zero(self):
        text = "x,u\n0.25,nan\n-inf,1e+300\n"
        assert cmp_outputs.number_diff(text, text) == (0.0, 0.0)

    def test_other_text_is_no_number_diff(self):
        diff = cmp_outputs.number_diff
        assert diff("passed: true 1", "passed: false 1") is None
        assert diff("1, 2", "1, 2, 3") is None

    def test_numbers_inside_names_are_text(self):
        diff = cmp_outputs.number_diff
        assert diff("c06 cubic-wavy", "c07 cubic-wavy") is None
        assert diff("eps 2^-6", "eps 2^-7") == (1.0, 1.0 / 7.0)


class TestCompare:
    @staticmethod
    def _run(stdout, code=0, stderr=""):
        return subprocess.CompletedProcess([], code, stdout, stderr)

    def test_text_that_differs_gives_the_line_counts(self):
        old = self._run("xi,V0,chi\n" + "0,0.5,0.2\n" * 3)
        new = self._run("xi,V0,chi\n0,0.5,0.2\n")
        assert (cmp_outputs.compare(old, new)
                == "text differs, lines 4 -> 2")

    def test_numbers_that_differ_give_the_gaps(self):
        old, new = self._run("t1 1.5\n"), self._run("t1 1.25\n")
        assert cmp_outputs.compare(old, new) == "max abs 0.25, max rel 0.167"
        assert cmp_outputs.compare(old, old) == "identical"


class TestClassifyMoves:
    def test_each_kind_against_the_reference(self):
        old = "gap 7.950e-09, K 5.489e-14, z 6.1e-19, t 2, w 0.5\n"
        new = "gap 7.883e-14, K 5.303e-14, z 1.2e-18, t 2, w 0.7\n"
        ref = "gap 1.200e-14, K 5.300e-14, z 0, t 3, w 0.55\n"
        assert cmp_outputs.classify_moves(old, new, ref) == [
            ("toward", "7.950e-09", "7.883e-14", "1.200e-14"),
            ("roundoff", "5.489e-14", "5.303e-14", "5.300e-14"),
            ("roundoff", "6.1e-19", "1.2e-18", "0"),
            ("away", "0.5", "0.7", "0.55")]

    def test_roundoff_needs_both_trees_near_the_reference(self):
        """A number that was far from the reference and is now within
        ROUNDOFF of it moved toward it; one that was within ROUNDOFF and
        left it moved away."""
        moves = cmp_outputs.classify_moves("a 1e-9 b 0\n", "a 1e-14 b 1e-12\n",
                                           "a 0 b 0\n")
        assert [m[0] for m in moves] == ["toward", "away"]

    def test_nan_is_away_and_other_text_is_none(self):
        assert cmp_outputs.classify_moves("x 1\n", "x nan\n", "x 1\n") == [
            ("away", "1", "nan", "1")]
        assert cmp_outputs.classify_moves("x 1\n", "x 2\n", "y 2\n") is None

    def test_judge_counts_and_lists_the_away_numbers(self):
        run = TestCompare._run
        more, away, ok = cmp_outputs.judge(run("a 1 b 2\n"), run("a 3 b 5\n"),
                                           run("a 3 b 2\n"))
        assert more == "; 1 toward, 0 roundoff, 1 away"
        assert away == ["    away: 2 -> 5 (reference 2)"]
        assert not ok

    def test_judge_classifies_stderr_numbers_too(self):
        run = TestCompare._run
        old = run("", 1, "Underflow: 0 from s = 69.24\n")
        new = run("", 1, "Underflow: 0 from s = 69.25\n")
        more, away, ok = cmp_outputs.judge(old, new, old)
        assert more == "; 0 toward, 0 roundoff, 1 away"
        assert away == ["    away: 69.24 -> 69.25 (reference 69.24)"]
        assert not ok

    def test_judge_holds_a_changed_exit_code_to_the_reference(self):
        run = TestCompare._run
        old = run("", 1, "UnicodeEncodeError\n")
        new = run("", 2, "ProblemError: name\n")
        assert cmp_outputs.judge(old, new, new)[2]
        assert not cmp_outputs.judge(old, new, old)[2]


class TestRuns:
    def test_curved_problem_runs(self):
        """Besides the built-ins, whose roots are flat at the layer point,
        the runs reach a problem whose roots have a slope there."""
        name = "gen-curved-4.json"
        assert cmp_outputs.CURVED_FILE == name
        curved = [cmd for cmd in cmp_outputs.RUNS
                  if cmd[1:3] == ("--problem", name)]
        assert curved == [
            ("locate", "--problem", name),
            ("dump-corrections", "--problem", name, "--p", "0.003"),
            ("expand", "--problem", name),
            ("decay", "--problem", name),
            ("residual", "--problem", name),
            ("fbeta", "--problem", name),
            ("monotone", "--problem", name),
            ("phi", "--problem", name),
            ("compare", "--problem", name, "--n", "4096")]

    def test_every_reference_problem_runs(self, tmp_path):
        """Each reference file is written as it is, under its own name, and
        runs `locate`; so does a file added to the directory."""
        cmp_outputs.write_inputs(tmp_path)
        names = [f"{stem}.json" for stem in problem.REFERENCE_PROBLEMS]
        reference = Path(problem.__file__).with_name("problems") / "reference"
        for name in names:
            assert ((tmp_path / name).read_bytes()
                    == (reference / name).read_bytes())
            assert ("locate", "--problem", name) in cmp_outputs.RUNS
        assert not set(names) & set(cmp_outputs.ERROR_FILES)

    def test_capped_layer_region_runs(self, actx):
        """On each built-in, an expand run whose U_trunc reads a layer
        region capped at min(t0, 1 - t0) / 2, the mesh's cap."""
        capped = [cmd for cmd in cmp_outputs.RUNS
                  if cmd[0] == "expand" and "--eps" in cmd]
        assert capped == [("expand", "--problem", name, "--eps", "0.03125",
                           "--n", "2048") for name in cmp_outputs.BUILTINS]
        for name in cmp_outputs.BUILTINS:
            _, loc, _ = actx.pipeline(name)
            tau = solver.layer_half_width(loc, 0.03125, 2048, solver.C_TAU)
            assert tau == min(loc.t0, 1.0 - loc.t0) / 2.0

    def test_table_writer_runs(self):
        """On each built-in, every table writer runs in both formats, solve
        on the oracle workload's largest mesh (2^16 cells) too."""
        for name in cmp_outputs.BUILTINS:
            runs = [cmd for cmd in cmp_outputs.RUNS if cmd[1:3] == (
                "--problem", name)]
            for writer in ("dump-kink", "dump-corrections", "expand",
                           "solve"):
                formats = {"--format" in cmd for cmd in runs
                           if cmd[0] == writer}
                assert formats == {False, True}, writer
            assert ("solve", "--problem", name, "--n", "65536",
                    "--format", "json") in runs
            assert ("solve", "--problem", name, "--n", "65536") in runs

    def test_small_eps_runs(self):
        """On each built-in, a compare run at eps = 2^-16 on 2^16 cells,
        where the three-product residual row lost symmetry to 1.4e-6."""
        for name in cmp_outputs.BUILTINS:
            assert ("compare", "--problem", name, "--eps",
                    "0.0000152587890625", "--n", "65536") in cmp_outputs.RUNS
        assert float("0.0000152587890625") == 2.0 ** -16

    def test_mesh_break_runs(self, actx):
        """On each built-in, runs whose meshes have breaks t0 -+ tau (a fine
        mesh at eps = 2^-9), t0 (N/2 odd; the region is capped at the
        problem's eps) and none (the uniform kind)."""
        assert cmp_outputs.PER_PROBLEM[-3:] == (
            ("compare", "--eps", "0.001953125", "--n", "8192"),
            ("solve", "--n", "2050", "--format", "json"),
            ("solve", "--mesh", "uniform", "--n", "2048", "--format", "json"))
        for name in cmp_outputs.BUILTINS:
            spec, loc, _ = actx.pipeline(name)
            for eps, N, kind, at in (
                    (2.0 ** -9, 8192, "layer-adapted", (-1.0, 1.0)),
                    (spec.eps, 2050, "layer-adapted", (0.0,)),
                    (spec.eps, 2048, "uniform", ())):
                mesh = solver.build_mesh(loc, eps, N, kind=kind)
                assert [mesh.nodes[i] for i in mesh.breaks] == [
                    loc.t0 + side * mesh.tau for side in at]

    def test_error_runs(self):
        """Each kind of input error is a run, so a parent comparison shows
        moves in exit codes and error lines."""
        errors = cmp_outputs.ERROR_RUNS
        assert cmp_outputs.RUNS[-len(errors):] == errors
        files = {cmd[2] for cmd in errors}
        assert files - set(cmp_outputs.ERROR_FILES) == {"no-such"}
        name = json.loads(cmp_outputs.ERROR_FILES["surrogate.json"])["name"]
        with pytest.raises(UnicodeEncodeError):
            name.encode("utf-8")

    def test_usage_runs(self, capsys):
        """Arguments out of range are runs too, so a parent comparison
        covers their usage error lines; they come before the error runs.
        Each line names the run's first flag, or the --pprime that a
        monotone run left to its default eps * p."""
        usage = cmp_outputs.USAGE_RUNS
        start = len(cmp_outputs.RUNS) - len(cmp_outputs.ERROR_RUNS)
        assert cmp_outputs.RUNS[start - len(usage):start] == usage
        for cmd in usage:
            assert cli.main(list(cmd)) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error: "), (cmd, err)
            named = err.split()[2]
            assert named == cmd[3] or (
                cmd[0] == "monotone" and "--pprime" not in cmd
                and err.startswith("usage error: --pprime defaults to ")), (
                cmd, err)
            assert err.count("\n") == 1
