"""Command-line interface.

Every subcommand prints a deterministic report: floats are rendered with 17
significant digits, so identical inputs give byte-identical output.  CSV
columns are documented per subcommand in --help.  Exit codes: 0 success, 1 a
failed check or a numerical error, 2 a usage or input error (an invalid
argument, among them an array size over SIZE_CAP, or an unreadable, malformed
or unknown problem).  Every error ends the run as one line on stderr, and its
class's `exit_code` is the exit status.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import acceptance, corrections, kink, locator, problem, solver, verify
from .errors import InputError, LayerforgeError
from .expansion import (HHAT_CAP, PPRIME_STAR, build_expansion,
                        build_perturbed)

SCHEMA_VERSION = 1

#: largest value of an option that sizes an array (--n of solve and compare,
#: --points, --n-grid): larger ones are usage errors, checked before any
#: allocation
SIZE_CAP = 2 ** 22


class UsageError(InputError):
    """An invalid command-line argument or output path."""


# ---------------------------------------------------------------------------
# Deterministic serialization


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    raise TypeError(f"unsupported scalar {x!r}")


#: JSON string literal with control characters escaped and non-ASCII kept
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def dumps(obj, indent: int = 0) -> str:
    """JSON text with fixed 17-significant-digit float formatting."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}  {_json_string(k)}: {dumps(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, (np.floating,)):
        return _fmt(float(obj))
    return _fmt(obj)


def _print_json(payload: dict):
    print(dumps(payload))


def _write(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise UsageError(
                f"cannot write {path}: {err.strerror or err}") from err


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def _write_table(args, spec, header, rows, **fields):
    """A table subcommand's rows in --format, to --out (default stdout).

    JSON puts `fields` between the problem name and the rows."""
    if args.format == "csv":
        _write_csv(args.out, header, rows)
        return
    payload = {"schema_version": SCHEMA_VERSION, "command": args.command,
               "problem": spec.name, **fields, "columns": list(header),
               "rows": [[float(v) if isinstance(v, (float, np.floating))
                         else v for v in row] for row in rows]}
    _write(args.out, dumps(payload) + "\n")


def _report_payload(rep: verify.SweepReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": rep.name,
        "parameter": rep.parameter,
        "values": [list(v) if isinstance(v, (tuple, list)) else v
                   for v in rep.values],
        "measured": list(rep.measured),
        "slope": rep.slope,
        "intercept": rep.intercept,
        "threshold": rep.threshold,
        "passed": rep.passed,
        "details": {k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in rep.details.items()},
    }


# ---------------------------------------------------------------------------
# Shared pipeline


def _pipeline(args):
    spec = problem.resolve_problem(args.problem, getattr(args, "eps", None))
    return (spec, *corrections.locate_and_match(spec))


#: subcommands whose output does not depend on the problem's epsilon: the
#: profile is epsilon-free, and the sweeps set their own epsilons
_NO_EPS = ("dump-kink", "residual", "fbeta", "all")


def _check_eps(args):
    eps = getattr(args, "eps", None)
    if eps is None:
        return
    if args.command in _NO_EPS:
        raise UsageError(f"--eps does not apply to {args.command!r}, whose "
                         "output does not depend on the problem's epsilon")
    if not 0.0 < eps < 1.0:
        raise UsageError(f"--eps must lie in (0, 1), got {eps}")


def _check_perturbation(pprime: float, hhat: float, eps: float):
    """The ranges build_perturbed admits, as usage errors."""
    if not abs(pprime) <= PPRIME_STAR:
        raise UsageError(
            f"--pprime magnitude must not exceed {PPRIME_STAR}, got {pprime}")
    if not hhat ** 2 <= HHAT_CAP * eps:
        raise UsageError(f"--hhat squared must not exceed {HHAT_CAP} * eps "
                         f"= {HHAT_CAP * eps:.3g}, got --hhat {hhat}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    spec = problem.resolve_problem(args.problem, args.eps)
    report = problem.check_assumptions(spec, n_grid=args.n_grid)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "problem": spec.name,
        "epsilon": spec.eps,
        "defaults": {"n_grid": args.n_grid, "p_star": kink.P_STAR,
                     "pprime_star": PPRIME_STAR,
                     "gamma_margin": problem.GAMMA_MARGIN},
        "scale": report.scale,
        "gamma_sq_est": report.gamma_sq_est,
        "checks": {name: {"passed": r.passed, "worst_x": r.worst_x,
                          "worst_value": r.worst_value, "note": r.note}
                   for name, r in report.checks.items()},
        "all_passed": report.all_passed(),
    }
    _print_json(payload)
    return 0 if report.all_passed() else 1


def cmd_locate(args) -> int:
    spec, loc, kk = _pipeline(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "locate",
        "problem": spec.name,
        "epsilon": spec.eps,
        "t0": loc.t0, "C_I": loc.C_I, "C_II": loc.C_II, "C_III": loc.C_III,
        "t1": loc.t1, "t2": loc.t2, "tbar1": loc.tbar1,
        "gamma_bar": loc.gamma_bar, "gamma": loc.gamma,
        "chi0": kk.chi_at_zero,
    }
    _print_json(payload)
    return 0


def cmd_dump_kink(args) -> int:
    spec = problem.resolve_problem(args.problem)
    kk = kink.build_kink(spec, locator.locate_t0(spec))
    rows = list(zip(kk.xi, kk.v_table, kk.chi_table))
    _write_table(args, spec, ("xi", "V0", "chi"), rows)
    return 0


def cmd_dump_corrections(args) -> int:
    spec, loc, kk = _pipeline(args)
    terms = corrections.build_terms(
        corrections.make_auxiliary(spec, kk, loc, p=args.p))
    rows = []
    for label, term in terms.items():
        for xi, val in zip(term.xi_neg, term.val_neg):
            rows.append((label, "minus", float(xi), float(val)))
        for xi, val in zip(term.xi_pos, term.val_pos):
            rows.append((label, "plus", float(xi), float(val)))
    _write_table(args, spec, ("term", "branch", "xi", "value"), rows,
                 phi={k: t.phi_value for k, t in terms.items()})
    return 0


def cmd_expand(args) -> int:
    spec, loc, kk = _pipeline(args)
    _check_perturbation(args.pprime, args.hhat, spec.eps)
    e = build_expansion(spec, p=args.p, eps=spec.eps, loc=loc, kink=kk)
    pe = build_perturbed(e, pprime=args.pprime, hhat=args.hhat)
    xs = np.linspace(0.0, 1.0, args.points)
    rows = list(zip(xs, e.u_as(xs), pe.beta(xs),
                    e.truncated(xs, args.n, args.c_tau)))
    _write_table(args, spec, ("x", "u_as", "beta", "U_trunc"), rows)
    return 0


def cmd_residual(args) -> int:
    spec, loc, kk = _pipeline(args)
    rep = verify.residual_sweep(spec, loc, kk)
    _print_json({"command": "residual", **_report_payload(rep)})
    if args.csv:
        _write_csv(args.csv, ("eps", "max_residual"),
                   list(zip(rep.values, rep.measured)))
    return 0 if rep.passed else 1


def cmd_phi(args) -> int:
    spec, loc, kk = _pipeline(args)
    rep = verify.phi_sweep(spec, loc, kk, eps=spec.eps)
    _print_json({"command": "phi", **_report_payload(rep)})
    if args.csv:
        _write_csv(args.csv, ("p", "phi"), list(zip(rep.values, rep.measured)))
    return 0 if rep.passed else 1


def cmd_decay(args) -> int:
    spec, loc, kk = _pipeline(args)
    terms = corrections.build_terms(
        corrections.make_auxiliary(spec, kk, loc, p=args.p))
    rates, floor, passed = verify.decay_rates(kk, terms)
    _print_json({"schema_version": SCHEMA_VERSION, "command": "decay",
                 "problem": spec.name, "gamma_bar": kk.gamma_bar,
                 "floor": floor, "rates": rates, "passed": passed})
    return 0 if passed else 1


def cmd_monotone(args) -> int:
    spec, loc, kk = _pipeline(args)
    eps = spec.eps
    pprime, hhat = verify.bracketing_weights(eps, args.p)
    pprime = pprime if args.pprime is None else args.pprime
    hhat = hhat if args.hhat is None else args.hhat
    _check_perturbation(pprime, hhat, eps)
    rep = verify.monotonicity_check(spec, loc, kk, eps=eps, p=args.p,
                                    pprime=pprime, hhat=hhat,
                                    n_points=args.points)
    _print_json({"command": "monotone", **_report_payload(rep)})
    return 0 if rep.passed else 1


def cmd_fbeta(args) -> int:
    spec, loc, kk = _pipeline(args)
    rep = verify.fbeta_check(spec, loc, kk)
    _print_json({"command": "fbeta", **_report_payload(rep)})
    return 0 if rep.passed else 1


def cmd_solve(args) -> int:
    spec, loc, kk = _pipeline(args)
    e = build_expansion(spec, p=0.0, eps=spec.eps, loc=loc, kink=kk)
    mesh = solver.build_mesh(loc, spec.eps, args.n, args.c_tau,
                             kind=args.mesh)
    sol = solver.newton_solve(spec, mesh, e.u_as)
    _write_table(args, spec, ("x", "u"), list(zip(mesh.nodes, sol.values)),
                 iterations=sol.iterations, residual_norm=sol.residual_norm)
    return 0


def cmd_compare(args) -> int:
    spec, loc, kk = _pipeline(args)
    e = build_expansion(spec, p=0.0, eps=spec.eps, loc=loc, kink=kk)
    mesh = solver.build_mesh(loc, spec.eps, args.n, args.c_tau)
    sol = solver.newton_solve(spec, mesh, e.u_as)
    d_max, d_layer, d_outer = solver.compare(sol, e.u_as)
    _print_json({"schema_version": SCHEMA_VERSION, "command": "compare",
                 "problem": spec.name, "epsilon": spec.eps, "N": args.n,
                 "iterations": sol.iterations,
                 "residual_norm": sol.residual_norm,
                 "distance_max": d_max, "distance_layer": d_layer,
                 "distance_outer": d_outer})
    return 0


def cmd_all(args) -> int:
    problems = ((args.problem,) if args.problem != "all"
                else tuple(problem.BUILTIN_PROBLEMS))
    for name in problems:
        if name not in problem.BUILTIN_PROBLEMS:
            raise UsageError(
                f"--problem must name a built-in for 'all', got {name!r}")
    results = acceptance.run_all(problems=problems)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerforge",
        description="Interior-layer expansions for bistable reaction-"
                    "diffusion boundary value problems.",
        epilog="Exit codes: 0 success, 1 failed check or numerical error, "
               "2 usage or input error.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--problem", default="cubic",
                       help="built-in name or path to a JSON problem file")
        p.add_argument("--eps", type=float, default=None,
                       help="override the problem's epsilon")
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, "verify the structural assumptions")
    p.add_argument("--n-grid", type=int, default=problem.CHECK_GRID,
                   help=f"check-grid resolution (default "
                        f"{problem.CHECK_GRID}, at most {SIZE_CAP})")

    add("locate", cmd_locate, "layer point and matching constants (JSON)")

    p = add("dump-kink", cmd_dump_kink,
            "profile table, CSV or JSON: xi,V0,chi")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("dump-corrections", cmd_dump_corrections,
            "correction tables, CSV or JSON: term,branch,xi,value")
    p.add_argument("--p", type=float, default=0.0, help="profile shift")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("expand", cmd_expand,
            "evaluate expansions on a uniform grid: x,u_as,beta,U_trunc")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--pprime", type=float, default=0.0)
    p.add_argument("--hhat", type=float, default=0.0)
    p.add_argument("--n", type=int, default=64, help="truncation N")
    p.add_argument("--c-tau", type=float, default=solver.C_TAU)
    p.add_argument("--points", type=int, default=1001,
                   help=f"grid points (at most {SIZE_CAP})")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("residual", cmd_residual, "residual-order sweep report (JSON)")
    p.add_argument("--csv", default=None, help="write raw points to CSV")

    p = add("phi", cmd_phi, "jump-functional linearity report (JSON)")
    p.add_argument("--csv", default=None, help="write raw points to CSV")

    p = add("decay", cmd_decay, "tail decay-rate report (JSON)")
    p.add_argument("--p", type=float, default=0.0)

    p = add("monotone", cmd_monotone, "bracketing-order report (JSON)")
    p.add_argument("--p", type=float, default=0.01)
    p.add_argument("--pprime", type=float, default=None,
                   help="default eps * p")
    p.add_argument("--hhat", type=float, default=None,
                   help="default sqrt(eps)")
    p.add_argument("--points", type=int, default=verify.MONOTONE_POINTS,
                   help=f"points evaluated (at most {SIZE_CAP})")

    add("fbeta", cmd_fbeta, "operator-defect margin report (JSON)")

    p = add("solve", cmd_solve, "nonlinear FD solve seeded by the expansion")
    p.add_argument("--n", type=int, default=512,
                   help=f"mesh cells (even, {solver.MIN_CELLS} to {SIZE_CAP})")
    p.add_argument("--c-tau", type=float, default=solver.C_TAU)
    p.add_argument("--mesh", choices=("layer-adapted", "uniform"),
                   default="layer-adapted")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("compare", cmd_compare, "distance of the FD solve to the expansion")
    p.add_argument("--n", type=int, default=512,
                   help=f"mesh cells (even, {solver.MIN_CELLS} to {SIZE_CAP})")
    p.add_argument("--c-tau", type=float, default=solver.C_TAU)

    add("all", cmd_all, "run the acceptance suite (use --problem all for "
                        "every built-in)")

    return parser


def _validate(args):
    _check_eps(args)
    for name in ("p", "pprime", "hhat", "c_tau"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, "
                             f"got {value}")
    meshed = args.command in ("solve", "compare")
    if getattr(args, "n", None) is not None:
        least = solver.MIN_CELLS if meshed else solver.MIN_REGION_N
        if args.n < least:
            raise UsageError(f"--n must be at least {least}, got {args.n}")
        if meshed and args.n % 2:
            raise UsageError(f"--n must be even, got {args.n}")
    if (getattr(args, "n_grid", None) is not None
            and args.n_grid < problem.MIN_GRID):
        raise UsageError(f"--n-grid must be at least {problem.MIN_GRID}, "
                         f"got {args.n_grid}")
    if (getattr(args, "c_tau", None) is not None
            and args.c_tau <= solver.C_TAU_FLOOR):
        raise UsageError(f"--c-tau must exceed {solver.C_TAU_FLOOR:g}, "
                         f"got {args.c_tau}")
    if getattr(args, "p", None) is not None and abs(args.p) > kink.P_STAR:
        raise UsageError(f"--p magnitude must not exceed {kink.P_STAR}")
    if getattr(args, "points", None) is not None and args.points < 2:
        raise UsageError(f"--points must be at least 2, got {args.points}")
    sized = ["n_grid", "points"]
    if meshed:
        sized.append("n")  # expand's --n only enters log N
    for name in sized:
        value = getattr(args, name, None)
        if value is not None and value > SIZE_CAP:
            raise UsageError(f"--{name.replace('_', '-')} must not exceed "
                             f"{SIZE_CAP}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        # float faults end the run as one typed line, not numpy warnings
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(args)
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the stream
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except FloatingPointError as err:
        print(f"FloatingPointError: {err}", file=sys.stderr)
        return 1
    except LayerforgeError as err:
        name = ("usage error" if isinstance(err, UsageError)
                else type(err).__name__)
        print(f"{name}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
