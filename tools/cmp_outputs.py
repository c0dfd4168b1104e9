"""Compare the checked CLI outputs of this tree with a parent checkout.

    python tools/cmp_outputs.py PARENT_CHECKOUT [--reference CHECKOUT]

runs every command of RUNS with `python -m layerforge` once on this tree's
`src/` and once on PARENT_CHECKOUT's `src/`, both from a temporary directory
that holds this tree's reference problems (REFERENCE_FILES, each under its
own file name) and the ERROR_FILES, and prints one line per run:
"identical" when stdout, stderr and exit code match byte for byte, else the
largest absolute and relative difference over the numbers of stdout (the
text around the numbers must match), or what else differs; a text that
differs comes with the line counts of both stdouts.  The exit status is 0
when every run is identical and 1 otherwise.

With --reference, a change that is meant to move numbers is judged against
a reference checkout (say, the same code on a finer grid): every run that
is not identical also runs on the reference's `src/`.  Each number that
moved is "roundoff" when both the parent's and this tree's value lie within
ROUNDOFF of the reference's, else "toward" or "away" as this tree's value
is nearer to the reference's than the parent's or not, on stdout and
stderr alike.  The verdict line gains the counts, and a line follows for
every number that moved away.  A run whose exit code or stderr text
changed must match the reference's in both; a stdout whose text changed
(a table on another grid) is reported only.  The exit status is then 1
when a number moved away or such a run differs from the reference's, and
0 otherwise.
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

#: this tree's `src/`
SRC = Path(__file__).resolve().parent.parent / "src"

BUILTINS = ("cubic", "cubic-wavy")

#: per built-in problem, the arguments after `--problem NAME`; at
#: eps = 2^-5 the layer region of expand's U_trunc is capped at
#: min(t0, 1 - t0) / 2, and locate, dump-corrections and decay read the
#: profile shift at an epsilon other than the file's.  Every table writer
#: runs in both formats, solve on the oracle workload's largest mesh too,
#: and compare runs at eps = 2^-16, where the rounding of the residual row
#: shows.  The last three runs reach the mesh's breaks, where the scheme
#: drops the compact average: t0 -+ tau on a fine mesh at eps = 2^-9, t0
#: with N/2 odd, and none on the uniform mesh
PER_PROBLEM = (
    ("check",),
    ("locate",),
    ("locate", "--eps", "0.03125"),
    ("dump-kink",),
    ("dump-kink", "--format", "json"),
    ("dump-corrections", "--p", "0.003"),
    ("dump-corrections", "--p", "0.003", "--format", "json"),
    ("dump-corrections", "--eps", "0.03125", "--p", "0.003"),
    ("expand",),
    ("expand", "--format", "json"),
    ("expand", "--p", "0.003", "--pprime", "0.0003", "--hhat", "0.1"),
    ("expand", "--eps", "0.03125", "--n", "2048"),
    ("phi",),
    ("decay",),
    ("decay", "--eps", "0.03125"),
    ("residual",),
    ("fbeta",),
    ("monotone",),
    ("solve", "--n", "2048", "--format", "json"),
    ("solve", "--n", "65536", "--format", "json"),
    ("solve", "--n", "65536"),
    ("compare", "--n", "4096"),
    ("compare", "--eps", "0.0000152587890625", "--n", "65536"),
    ("compare", "--eps", "0.001953125", "--n", "8192"),
    ("solve", "--n", "2050", "--format", "json"),
    ("solve", "--mesh", "uniform", "--n", "2048", "--format", "json"),
)

#: this tree's reference problems, src/layerforge/problems/reference/*.json,
#: by file name, so a file added there joins the runs as it is
REFERENCE_DIR = SRC / "layerforge" / "problems" / "reference"
REFERENCE_FILES = {path.name: path.read_text(encoding="utf-8")
                   for path in sorted(REFERENCE_DIR.glob("*.json"))}

#: `locate` on each reference problem; some end in an error line (steep-tail
#: in a weight underflow, cubic-flipped in the wrong orientation,
#: cubic-degenerate in a root that is not simple, cubic-dipping in a
#: potential that is not positive)
REFERENCE_RUNS = tuple(("locate", "--problem", name)
                       for name in REFERENCE_FILES)

#: the curved instance of perfbench's generated family (generate(1, 1)):
#: unlike the built-ins, its outer roots have a slope at the layer point
CURVED_FILE = "gen-curved-4.json"
_CURVED = json.loads(REFERENCE_FILES[CURVED_FILE])

#: on the curved instance, the arguments after `--problem CURVED_FILE`,
#: besides the `locate` of REFERENCE_RUNS
PER_CURVED = (
    ("dump-corrections", "--p", "0.003"),
    ("expand",),
    ("decay",),
    ("residual",),
    ("fbeta",),
    ("monotone",),
    ("phi",),
    ("compare", "--n", "4096"),
)

#: inputs whose runs end in an error line, by file name
ERROR_FILES = {
    "malformed.json": '{"name": "bad", "b": ',
    "parse-error.json": json.dumps(dict(_CURVED, b=_CURVED["b"] + "$")),
    "overflow.json": json.dumps(dict(_CURVED, phi2="1/1e300^-1")),
    "surrogate.json": json.dumps(dict(_CURVED, name="gen-curved-\ud800")),
}

#: a malformed file, a parse error, an unknown built-in, a reaction that
#: overflows on a root, a name that is not UTF-8 (a lone surrogate is valid
#: JSON)
ERROR_RUNS = tuple(("locate", "--problem", name) for name in (
    "malformed.json", "parse-error.json", "no-such", "overflow.json",
    "surrogate.json"))

#: on the cubic, arguments out of range: each run ends in a usage error line
USAGE_RUNS = tuple((cmd[0], "--problem", "cubic", *cmd[1:]) for cmd in (
    ("expand", "--pprime", "0.1"),
    ("monotone", "--hhat", "1"),
    ("check", "--n-grid", "8"),
    ("solve", "--c-tau", "2"),
    ("solve", "--n", "2"),
    ("expand", "--p", "0.5"),
    ("expand", "--n", "1"),
    ("solve", "--n", "33"),
    ("monotone", "--eps", "0.9", "--p", "0.1"),
))

RUNS = (("all", "--problem", "all"),
        *((cmd[0], "--problem", name, *cmd[1:])
          for name in BUILTINS for cmd in PER_PROBLEM),
        *REFERENCE_RUNS,
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


#: a moved number within this of the reference on both trees is roundoff
ROUNDOFF = 1e-13


def classify_moves(old: str, new: str, ref: str):
    """(kind, parent, this tree, reference) for each number that moved from
    `old` to `new`, as the texts print them, with kind "roundoff", "toward"
    or "away" (see the module docstring); None unless the three texts match
    once their numbers are blanked out.  A NaN that appears or a reference
    that is NaN counts as away."""
    if not (_NUMBER.sub("#", old) == _NUMBER.sub("#", new)
            == _NUMBER.sub("#", ref)):
        return None
    moves = []
    for x, y, z in zip(*(_NUMBER.findall(text) for text in (old, new, ref))):
        u, v, r = float(x), float(y), float(z)
        if u == v or (math.isnan(u) and math.isnan(v)):
            continue
        if abs(v - r) <= ROUNDOFF and abs(u - r) <= ROUNDOFF:
            kind = "roundoff"
        elif abs(v - r) < abs(u - r):
            kind = "toward"
        else:
            kind = "away"
        moves.append((kind, x, y, z))
    return moves


def judge(old: subprocess.CompletedProcess, new: subprocess.CompletedProcess,
          ref: subprocess.CompletedProcess) -> tuple[str, list, bool]:
    """What a run that is not identical says against the reference: the
    text to add to its verdict, the lines to print under it, and whether
    it passes."""
    errs = classify_moves(old.stderr, new.stderr, ref.stderr)
    if old.returncode != new.returncode or errs is None:
        same = (new.returncode, new.stderr) == (ref.returncode, ref.stderr)
        return ("; exit code and stderr as the reference's" if same
                else "; exit code or stderr not the reference's"), [], same
    outs = classify_moves(old.stdout, new.stdout, ref.stdout)
    moves = errs + (outs or [])
    counts = {kind: sum(m[0] == kind for m in moves)
              for kind in ("toward", "roundoff", "away")}
    away = [f"    away: {u} -> {v} (reference {r})"
            for kind, u, v, r in moves if kind == "away"]
    more = "; " + ", ".join(f"{n} {kind}" for kind, n in counts.items())
    if outs is None:
        more += "; stdout text not comparable with the reference"
    return more, away, not away


def write_inputs(directory) -> None:
    """Write the reference problems and the error files into directory."""
    for name, text in {**REFERENCE_FILES, **ERROR_FILES}.items():
        Path(directory, name).write_text(text, encoding="utf-8")


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
    parser.add_argument("--reference", type=Path,
                        help="checkout whose numbers the moved ones are "
                             "judged against")
    args = parser.parse_args(argv)
    there = args.parent.resolve() / "src"
    passed = True
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for cmd in RUNS:
            old, new = run(there, cmd, tmp), run(SRC, cmd, tmp)
            verdict, away = compare(old, new), []
            if verdict != "identical" and args.reference is None:
                passed = False
            elif verdict != "identical":
                ref = run(args.reference.resolve() / "src", cmd, tmp)
                more, away, ok = judge(old, new, ref)
                verdict += more
                passed &= ok
            print(f"{' '.join(cmd)}: {verdict}", *away, sep="\n", flush=True)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
