"""Problem instances: the reaction term, its reduced roots, and the
numerical verification of the structural assumptions they must satisfy."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import expr as ex

_REQUIRED_FIELDS = ("name", "b", "phi0", "phi1", "phi2", "g0", "g1", "epsilon")

BUILTIN_PROBLEMS = {
    "cubic": {
        "name": "cubic",
        "b": "u*(u-(0.75-0.5*x))*(u-1)",
        "phi0": "0.75-0.5*x",
        "phi1": "0",
        "phi2": "1",
        "g0": 0.0,
        "g1": 1.0,
        "epsilon": 0.01,
    },
    # same cubic with all three roots shifted by 0.1*sin(pi x): exercises
    # curved stable roots, hence non-trivial smooth second-order corrections
    "cubic-wavy": {
        "name": "cubic-wavy",
        "b": ("(u-0.1*sin(3.14159265358979*x))"
              "*(u-(0.75-0.5*x+0.1*sin(3.14159265358979*x)))"
              "*(u-(1+0.1*sin(3.14159265358979*x)))"),
        "phi0": "0.75-0.5*x+0.1*sin(3.14159265358979*x)",
        "phi1": "0.1*sin(3.14159265358979*x)",
        "phi2": "1+0.1*sin(3.14159265358979*x)",
        "g0": 0.0,
        "g1": 1.0,
        "epsilon": 0.01,
    },
}


class ProblemError(ValueError):
    """A problem file is malformed or violates a load-time precondition."""


@dataclass(frozen=True)
class ProblemSpec:
    """A complete problem instance with derivative caches.

    b_partials[(i, j)] is the exact symbolic d^{i+j} b / dx^i du^j for
    i + j <= 3; phi_derivs[k][m] is the m-th x-derivative of root k for
    m <= 4 (the smooth second-order correction needs four derivatives of
    the outer roots); u2_exprs[side] holds (u2, u2', u2'') in x for the
    smooth second-order correction u2 = phi_k'' / b_u(x, phi_k) of the
    left (phi1) and right (phi2) outer root.  All three are derived in
    __post_init__, never passed in.
    """

    name: str
    b: ex.Expr
    phi0: ex.Expr
    phi1: ex.Expr
    phi2: ex.Expr
    g0: float
    g1: float
    eps: float
    b_partials: dict = field(init=False, compare=False, repr=False)
    phi_derivs: tuple = field(init=False, compare=False, repr=False)
    u2_exprs: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ProblemError(f"epsilon must be in (0, 1), got {self.eps}")
        for label, root in (("phi0", self.phi0), ("phi1", self.phi1),
                            ("phi2", self.phi2)):
            if ex.uses_variable(root, "u"):
                raise ProblemError(f"root {label} may not reference u")
        partials = {(0, 0): self.b}
        for total in range(1, 4):
            for i in range(total + 1):
                j = total - i
                if i > 0:
                    partials[(i, j)] = ex.differentiate(partials[(i - 1, j)], "x")
                else:
                    partials[(i, j)] = ex.differentiate(partials[(i, j - 1)], "u")
        object.__setattr__(self, "b_partials", partials)
        derivs = []
        for root in (self.phi0, self.phi1, self.phi2):
            chain = [root]
            for _ in range(4):
                chain.append(ex.differentiate(chain[-1], "x"))
            derivs.append(tuple(chain))
        object.__setattr__(self, "phi_derivs", tuple(derivs))
        u2_exprs = []
        for k in (1, 2):
            den = ex.substitute(partials[(0, 1)], "u", derivs[k][0])
            u2 = ex.div(derivs[k][2], den)
            du2 = ex.differentiate(u2, "x")
            u2_exprs.append((u2, du2, ex.differentiate(du2, "x")))
        object.__setattr__(self, "u2_exprs", tuple(u2_exprs))

    # -- evaluators ---------------------------------------------------------

    def b_val(self, x, u, dx: int = 0, du: int = 0):
        """Evaluate d^{dx+du} b / dx^dx du^du at (x, u)."""
        return ex.evaluate(self.b_partials[(dx, du)], x, u)

    def phi(self, k: int, x, order: int = 0):
        """Evaluate the order-th x-derivative of root k at x."""
        return ex.evaluate(self.phi_derivs[k][order], x, 0.0)


def _number(data: dict, key: str) -> float:
    try:
        return float(data[key])
    except (TypeError, ValueError) as err:
        raise ProblemError(
            f"field {key!r} must be a number, got {data[key]!r}") from err


def problem_from_dict(data: dict) -> ProblemSpec:
    missing = [f for f in _REQUIRED_FIELDS if f not in data]
    if missing:
        raise ProblemError(f"problem file missing fields: {', '.join(missing)}")
    return ProblemSpec(
        name=str(data["name"]),
        b=ex.parse(str(data["b"])),
        phi0=ex.parse(str(data["phi0"])),
        phi1=ex.parse(str(data["phi1"])),
        phi2=ex.parse(str(data["phi2"])),
        g0=_number(data, "g0"),
        g1=_number(data, "g1"),
        eps=_number(data, "epsilon"),
    )


def load_problem(path) -> ProblemSpec:
    """Load a problem instance from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ProblemError(f"{path}: cannot read ({err.strerror})") from err
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
        raise ProblemError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(data, dict):
        raise ProblemError(f"{path}: expected a JSON object")
    return problem_from_dict(data)


def builtin_problem(name: str, eps: float | None = None) -> ProblemSpec:
    """One of the shipped instances, optionally at a different epsilon."""
    if name not in BUILTIN_PROBLEMS:
        raise ProblemError(
            f"unknown built-in problem {name!r}; have {sorted(BUILTIN_PROBLEMS)}")
    data = dict(BUILTIN_PROBLEMS[name])
    if eps is not None:
        data["epsilon"] = eps
    return problem_from_dict(data)


def resolve_problem(name_or_path: str, eps: float | None = None) -> ProblemSpec:
    """Accept either a built-in name or a path to a JSON problem file."""
    if name_or_path in BUILTIN_PROBLEMS:
        return builtin_problem(name_or_path, eps)
    if Path(name_or_path).exists():
        spec = load_problem(name_or_path)
        return spec if eps is None else replace(spec, eps=eps)
    raise ProblemError(f"no built-in problem or file named {name_or_path!r}")


# ---------------------------------------------------------------------------
# Assumption checking


@dataclass(frozen=True)
class CheckResult:
    passed: bool | None  # None = deferred to the layer locator
    worst_x: float | None = None
    worst_value: float | None = None
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: dict
    gamma_sq_est: float
    scale: float
    n_grid: int
    gamma_bar_sq_est: float | None = None

    def all_passed(self) -> bool:
        return all(r.passed is not False for r in self.checks.values())

    def with_gamma_bar(self, gamma_bar_sq: float) -> "AssumptionReport":
        return AssumptionReport(checks=self.checks,
                                gamma_sq_est=self.gamma_sq_est,
                                scale=self.scale, n_grid=self.n_grid,
                                gamma_bar_sq_est=gamma_bar_sq)


def _worst(x: np.ndarray, values: np.ndarray, take_max: bool):
    idx = int(np.argmax(values) if take_max else np.argmin(values))
    return float(x[idx]), float(values[idx])


def check_assumptions(spec: ProblemSpec, n_grid: int = 256) -> AssumptionReport:
    """Verify the structural assumptions on a uniform grid.

    Failures are reported, never thrown.  The layer-orientation condition
    is deferred to the locator, which owns the quadrature it needs.
    """
    if n_grid < 16:
        raise ValueError("n_grid must be at least 16")
    x = np.linspace(0.0, 1.0, n_grid + 1)
    roots = [spec.phi(k, x) for k in range(3)]

    # tolerance scale from the largest reaction value seen on the grid,
    # sampling u across the root span
    span_lo = roots[1].min()
    span_hi = roots[2].max()
    b_mag = 0.0
    for frac in np.linspace(0.0, 1.0, 9):
        u = span_lo + frac * (span_hi - span_lo)
        b_mag = max(b_mag, float(np.max(np.abs(spec.b_val(x, u)))))
    scale = 1.0 + b_mag
    tol = 1e-10 * scale

    checks = {}

    root_resid = np.max([np.abs(spec.b_val(x, roots[k])) for k in range(3)], axis=0)
    wx, wv = _worst(x, root_resid, take_max=True)
    checks["A1"] = CheckResult(bool(wv <= tol), wx, wv,
                               "max |b(x, root_k)| over the grid")

    gap_lo = roots[0] - roots[1]
    gap_hi = roots[2] - roots[0]
    gaps = np.minimum(gap_lo, gap_hi)
    wx, wv = _worst(x, gaps, take_max=False)
    checks["A2"] = CheckResult(bool(wv > tol), wx, wv,
                               "min root separation (needs ordering with margin)")

    bu_stable = np.minimum(spec.b_val(x, roots[1], du=1),
                           spec.b_val(x, roots[2], du=1))
    wx, wv = _worst(x, bu_stable, take_max=False)
    checks["A3"] = CheckResult(bool(wv > 0.0), wx, wv,
                               "min du-slope of b on the outer roots")
    # 1% safety margin on the reported squared decay-rate floor
    gamma_sq_est = max(wv, 0.0) * 0.99

    bu_middle = spec.b_val(x, roots[0], du=1)
    wx, wv = _worst(x, bu_middle, take_max=True)
    checks["A4"] = CheckResult(bool(wv < 0.0), wx, wv,
                               "max du-slope of b on the middle root")

    checks["A5"] = CheckResult(None, None, None,
                               "layer location and orientation: see locator")

    a6_values = {
        "phi1(0)-g0": float(spec.phi(1, 0.0) - spec.g0),
        "phi2(1)-g1": float(spec.phi(2, 1.0) - spec.g1),
        "phi1''(0)": float(spec.phi(1, 0.0, order=2)),
        "phi2''(1)": float(spec.phi(2, 1.0, order=2)),
    }
    worst_name = max(a6_values, key=lambda k: abs(a6_values[k]))
    checks["A6"] = CheckResult(
        bool(all(abs(v) <= tol for v in a6_values.values())),
        0.0 if "(0)" in worst_name else 1.0,
        a6_values[worst_name],
        f"boundary compatibility, worst: {worst_name}")

    return AssumptionReport(checks=checks, gamma_sq_est=float(gamma_sq_est),
                            scale=float(scale), n_grid=n_grid)
