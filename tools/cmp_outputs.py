"""Compare the checked CLI outputs of this tree with a parent checkout.

    python tools/cmp_outputs.py PARENT_CHECKOUT

runs every command of RUNS with `python -m layerforge` once on this tree's
`src/` and once on PARENT_CHECKOUT's `src/`, both from a temporary directory
that holds the CURVED problem as CURVED_FILE and the ERROR_FILES, and prints
one line per run:
"identical" when stdout, stderr and exit code match byte for byte, else the
largest absolute and relative difference over the numbers of stdout (the
text around the numbers must match), or what else differs; a text that
differs comes with the line counts of both stdouts.  The exit status is 0
when every run is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BUILTINS = ("cubic", "cubic-wavy")

#: per built-in problem, the arguments after `--problem NAME`; at
#: eps = 2^-5 the layer region of expand's U_trunc is capped at
#: min(t0, 1 - t0) / 2.  The last three runs reach the mesh's breaks, where
#: the scheme drops the compact average: t0 -+ tau on a fine mesh at
#: eps = 2^-9, t0 with N/2 odd, and none on the uniform mesh
PER_PROBLEM = (
    ("check",),
    ("locate",),
    ("dump-kink",),
    ("dump-corrections", "--p", "0.003"),
    ("expand",),
    ("expand", "--p", "0.003", "--pprime", "0.0003", "--hhat", "0.1"),
    ("expand", "--eps", "0.03125", "--n", "2048"),
    ("phi",),
    ("decay",),
    ("residual",),
    ("fbeta",),
    ("monotone",),
    ("solve", "--n", "2048", "--format", "json"),
    ("compare", "--n", "4096"),
    ("compare", "--eps", "0.001953125", "--n", "8192"),
    ("solve", "--n", "2050", "--format", "json"),
    ("solve", "--mesh", "uniform", "--n", "2048", "--format", "json"),
)

#: the curved instance of perfbench's generated family (generate(1, 1)):
#: unlike the built-ins, its outer roots have a slope at the layer point
CURVED = {
    "name": "gen-curved-4",
    "b": "(u-0.0717*sin(1*3.14159265358979*x))"
         "*(u-((0.5-0.4144*(x-0.3922))+0.0717*sin(1*3.14159265358979*x)))"
         "*(u-(1+0.0717*sin(1*3.14159265358979*x)))",
    "phi0": "(0.5-0.4144*(x-0.3922))+0.0717*sin(1*3.14159265358979*x)",
    "phi1": "0.0717*sin(1*3.14159265358979*x)",
    "phi2": "1+0.0717*sin(1*3.14159265358979*x)",
    "g0": 0.0,
    "g1": 1.0,
    "epsilon": 0.008693,
}
CURVED_FILE = "curved.json"

#: on CURVED, the arguments after `--problem CURVED_FILE`
PER_CURVED = (
    ("locate",),
    ("dump-corrections", "--p", "0.003"),
    ("expand",),
    ("decay",),
    ("residual",),
    ("fbeta",),
    ("monotone",),
    ("phi",),
    ("compare", "--n", "4096"),
)

#: tail rates 0.94 and 10.76: on the plus branch of the correction grid,
#: whose range follows the smaller rate, the profile weight underflows to 0
UNDERFLOW = {
    "name": "steep-tail",
    "b": "u*(u-(0.88426-0.1*(x-0.5)))*(u-1)*(1+1000*u^20)",
    "phi0": "0.88426-0.1*(x-0.5)",
    "phi1": "0",
    "phi2": "1",
    "g0": 0.0,
    "g1": 1.0,
    "epsilon": 0.01,
}

#: inputs whose runs end in an error line, by file name
ERROR_FILES = {
    "malformed.json": '{"name": "bad", "b": ',
    "parse-error.json": json.dumps(dict(CURVED, b=CURVED["b"] + "$")),
    "steep-tail.json": json.dumps(UNDERFLOW),
    "overflow.json": json.dumps(dict(CURVED, phi2="1/1e300^-1")),
}

#: a malformed file, a parse error, an unknown built-in, a weight underflow,
#: a reaction that overflows on a root
ERROR_RUNS = tuple(("locate", "--problem", name) for name in (
    "malformed.json", "parse-error.json", "no-such", "steep-tail.json",
    "overflow.json"))

#: on the cubic, arguments out of range: each run ends in a usage error line
USAGE_RUNS = tuple((cmd[0], "--problem", "cubic", *cmd[1:]) for cmd in (
    ("expand", "--pprime", "0.1"),
    ("monotone", "--hhat", "1"),
    ("check", "--n-grid", "8"),
    ("solve", "--c-tau", "2"),
    ("solve", "--n", "2"),
))

RUNS = (("all", "--problem", "all"),
        *((cmd[0], "--problem", name, *cmd[1:])
          for name in BUILTINS for cmd in PER_PROBLEM),
        *((cmd[0], "--problem", CURVED_FILE, *cmd[1:]) for cmd in PER_CURVED),
        *USAGE_RUNS,
        *ERROR_RUNS)

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|inf|nan)(?![\w.])")


def number_diff(a: str, b: str):
    """(max absolute, max relative) difference over the numbers of two
    texts that match once their numbers are blanked out, else None.  NaN
    equals NaN, and the relative difference is taken against the larger
    magnitude (0 where both numbers are 0)."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        u, v = float(x), float(y)
        if u == v or (math.isnan(u) and math.isnan(v)):
            continue
        gap = abs(u - v)
        worst_abs = max(worst_abs, gap)
        worst_rel = max(worst_rel, gap / max(abs(u), abs(v)))
    return worst_abs, worst_rel


def run(src: Path, args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "layerforge", *args],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          check=False)


def compare(old: subprocess.CompletedProcess,
            new: subprocess.CompletedProcess) -> str:
    """One verdict line for a parent run and this tree's run."""
    if old.returncode != new.returncode:
        return f"exit code {old.returncode} -> {new.returncode}"
    if old.stderr != new.stderr:
        return "stderr differs"
    if old.stdout == new.stdout:
        return "identical"
    diff = number_diff(old.stdout, new.stdout)
    if diff is None:
        lines = [len(proc.stdout.splitlines()) for proc in (old, new)]
        return f"text differs, lines {lines[0]} -> {lines[1]}"
    return f"max abs {diff[0]:.3g}, max rel {diff[1]:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="checkout of the parent commit")
    args = parser.parse_args(argv)
    here = Path(__file__).resolve().parent.parent / "src"
    there = args.parent.resolve() / "src"
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {CURVED_FILE: json.dumps(CURVED),
                           **ERROR_FILES}.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for cmd in RUNS:
            verdict = compare(run(there, cmd, tmp), run(here, cmd, tmp))
            same &= verdict == "identical"
            print(f"{' '.join(cmd)}: {verdict}", flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
