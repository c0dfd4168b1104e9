import importlib.util
import subprocess
from pathlib import Path

import pytest

from layerforge import cli, solver

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


class TestRuns:
    def test_curved_problem_runs(self, curved_data):
        """Besides the built-ins, whose roots are flat at the layer point,
        the runs reach a problem whose roots have a slope there."""
        assert cmp_outputs.CURVED == curved_data
        curved = [cmd for cmd in cmp_outputs.RUNS
                  if cmd[1:3] == ("--problem", cmp_outputs.CURVED_FILE)]
        assert curved == [
            ("locate", "--problem", "curved.json"),
            ("dump-corrections", "--problem", "curved.json", "--p", "0.003"),
            ("expand", "--problem", "curved.json"),
            ("decay", "--problem", "curved.json"),
            ("residual", "--problem", "curved.json"),
            ("fbeta", "--problem", "curved.json"),
            ("monotone", "--problem", "curved.json"),
            ("phi", "--problem", "curved.json"),
            ("compare", "--problem", "curved.json", "--n", "4096")]

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

    def test_error_runs(self, underflow_data):
        """Each kind of input error, and a numerical failure, is a run, so
        a parent comparison shows moves in exit codes and error lines."""
        assert cmp_outputs.UNDERFLOW == underflow_data
        errors = cmp_outputs.ERROR_RUNS
        assert cmp_outputs.RUNS[-len(errors):] == errors
        files = {cmd[2] for cmd in errors}
        assert files - set(cmp_outputs.ERROR_FILES) == {"no-such"}

    def test_usage_runs(self, capsys):
        """Arguments out of range are runs too, so a parent comparison
        covers their usage error lines; they come before the error runs."""
        usage = cmp_outputs.USAGE_RUNS
        start = len(cmp_outputs.RUNS) - len(cmp_outputs.ERROR_RUNS)
        assert cmp_outputs.RUNS[start - len(usage):start] == usage
        for cmd in usage:
            assert cli.main(list(cmd)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: {cmd[3]}"), (cmd, err)
            assert err.count("\n") == 1
